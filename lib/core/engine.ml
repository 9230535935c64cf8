module Metrics = Ldlp_obs.Metrics
module Obs = Ldlp_obs.Obs

type discipline = Conventional | Ldlp of Batch.policy

type target = To_node of int | To_up | To_down | Misroute

type 'a node = {
  layer : 'a Layer.t;
  use_tx : bool;
  priority : int;
  mutable entry : bool;
  up_route : target;
  to_route : string -> target;
  down_route : target;
  queue : 'a Msg.t Rqueue.t;
  size_at : int -> int;
      (* Byte size of the k-th queued message — prebuilt once per node so
         the batch-limit scan in the quantum loop allocates no closure. *)
  mutable handled : int;
  mutable runs : int;
}

type stats = {
  injected : int;
  to_up : int;
  to_down : int;
  consumed : int;
  misrouted : int;
  shed : int;
  batches : int;
  max_batch : int;
  total_batched : int;
  per_node : (string * int) list;
  per_node_runs : (string * int) list;
}

type 'a t = {
  discipline : discipline;
  mutable nodes : 'a node array;
  mutable nnodes : int;
  up : 'a Msg.t -> unit;
  down : 'a Msg.t -> unit;
  on_handled : int -> 'a Layer.t -> 'a Msg.t -> unit;
  on_consume : 'a Msg.t -> unit;
  mutable injected : int;
  mutable to_up : int;
  mutable to_down : int;
  mutable consumed : int;
  mutable misrouted : int;
  mutable batches : int;
  mutable max_batch : int;
  mutable total_batched : int;
  intake_limit : int option;
  on_shed : 'a Msg.t -> unit;
  mutable shed : int;
  mutable shed_sc : int ref;
  mutable metrics : Metrics.t option;
  mutable last_ran : int;  (* node of the previous handler call, or -1 *)
  mutable dequeued : int;  (* queue pops + recursive forwards, for run () *)
  mutable enqueued : int;  (* queue pushes (injections included) *)
  mutable duplex_split : int;  (* first tx node of a duplex engine, or -1 *)
}

let create ~discipline ?(up = fun _ -> ()) ?(down = fun _ -> ())
    ?(on_handled = fun _ _ _ -> ()) ?(on_consume = fun _ -> ()) ?intake_limit
    ?(on_shed = fun _ -> ()) () =
  (match intake_limit with
  | Some n when n < 1 -> invalid_arg "Engine.create: intake_limit < 1"
  | _ -> ());
  {
    discipline;
    nodes = [||];
    nnodes = 0;
    up;
    down;
    on_handled;
    on_consume;
    injected = 0;
    to_up = 0;
    to_down = 0;
    consumed = 0;
    misrouted = 0;
    batches = 0;
    max_batch = 0;
    total_batched = 0;
    intake_limit;
    on_shed;
    shed = 0;
    shed_sc = ref 0;
    metrics = None;
    last_ran = -1;
    dequeued = 0;
    enqueued = 0;
    duplex_split = -1;
  }

let node_count t = t.nnodes

let node t i =
  if i < 0 || i >= t.nnodes then invalid_arg "Engine: node index out of range";
  t.nodes.(i)

let node_name t i = (node t i).layer.Layer.name

let mk_node ~layer ~use_tx ~priority ~entry ~up_route ~to_route ~down_route =
  let queue = Rqueue.create () in
  {
    layer;
    use_tx;
    priority;
    entry;
    up_route;
    to_route;
    down_route;
    queue;
    size_at = (fun k -> (Rqueue.get queue k).Msg.size);
    handled = 0;
    runs = 0;
  }

let add_node t ~layer ~use_tx ~priority ~entry ~up_route ~to_route ~down_route =
  let n = mk_node ~layer ~use_tx ~priority ~entry ~up_route ~to_route ~down_route in
  if t.nnodes = Array.length t.nodes then begin
    let grown = Array.make (Int.max 4 (2 * Array.length t.nodes)) n in
    Array.blit t.nodes 0 grown 0 t.nnodes;
    t.nodes <- grown
  end;
  let i = t.nnodes in
  t.nodes.(i) <- n;
  t.nnodes <- i + 1;
  i

let set_entry t i e = (node t i).entry <- e

let is_entry t i = (node t i).entry

let attach_metrics t m =
  if Metrics.nlayers m <> t.nnodes then
    invalid_arg "Engine.attach_metrics: sheet layer count <> node count";
  (* The "shed" scalar exists only on engines that can actually shed, so
     sheets of unlimited engines render exactly as before. *)
  if t.intake_limit <> None then t.shed_sc <- Metrics.scalar m "shed";
  t.metrics <- Some m

let try_inject t ~node:i msg =
  let n = node t i in
  match t.intake_limit with
  | Some limit when Rqueue.length n.queue >= limit ->
    (* Overload: refuse at the door.  The message never counts as
       injected, so the idle conservation invariants are untouched; the
       owner reclaims its payload in [on_shed]. *)
    t.shed <- t.shed + 1;
    Metrics.add_scalar t.shed_sc 1;
    t.on_shed msg;
    false
  | _ ->
    t.injected <- t.injected + 1;
    t.enqueued <- t.enqueued + 1;
    Rqueue.push n.queue msg;
    (match t.metrics with
    | None -> ()
    | Some mt ->
      let d = Rqueue.length n.queue in
      Metrics.arrival mt ~depth:d;
      Metrics.queue_depth mt i d);
    true

let inject t ~node msg = ignore (try_inject t ~node msg)

let backlog t ~node:i = Rqueue.length (node t i).queue

(* Toplevel recursions, not local [let rec]s: a local recursive helper
   that captures [t] is a fresh closure on every call, and [pending] /
   [next_ready] run once per quantum / per step on the allocation-free
   hot path. *)
let rec pending_from t i acc =
  if i >= t.nnodes then acc
  else pending_from t (i + 1) (acc + Rqueue.length t.nodes.(i).queue)

let pending t = pending_from t 0 0

(* Run one message through node [i]'s handler and dispatch its actions.
   [recurse] processes [To_node] routes immediately, depth-first
   (conventional); otherwise the target's queue receives them (LDLP).
   The dispatch loop is hand-rolled recursion — no [List.iter] closure,
   no per-call handler closure — so a quantum over layers that answer
   with the static {!Layer.up_only}/[down_only] lists touches the heap
   not at all. *)
let rec handle t i msg ~recurse =
  let n = t.nodes.(i) in
  if t.last_ran <> i then begin
    n.runs <- n.runs + 1;
    t.last_ran <- i
  end;
  t.on_handled i n.layer msg;
  n.handled <- n.handled + 1;
  (match t.metrics with None -> () | Some mt -> Metrics.handled mt i);
  let actions =
    (* Gc sampling around the handler only (not the dispatch below), so a
       recursive traversal in conventional mode cannot double-attribute
       one node's allocations to the node that forwarded to it. *)
    match t.metrics with
    | Some mt when Obs.enabled () ->
      let w0 = Gc.minor_words () in
      let actions =
        if n.use_tx then n.layer.Layer.handle_tx msg else n.layer.Layer.handle msg
      in
      Metrics.alloc mt i (int_of_float (Gc.minor_words () -. w0));
      actions
    | _ ->
      if n.use_tx then n.layer.Layer.handle_tx msg else n.layer.Layer.handle msg
  in
  dispatch t n msg actions ~recurse

and dispatch t n msg actions ~recurse =
  match actions with
  | [] -> ()
  | action :: rest ->
    (match action with
    | Layer.Consume ->
      t.consumed <- t.consumed + 1;
      t.on_consume msg
    | Layer.Up -> route t n.up_route msg ~recurse
    | Layer.Down -> route t n.down_route msg ~recurse
    | Layer.Deliver_up m -> route t n.up_route m ~recurse
    | Layer.Deliver_to (name, m) -> route t (n.to_route name) m ~recurse
    | Layer.Send_down m -> route t n.down_route m ~recurse);
    dispatch t n msg rest ~recurse

and route t target m ~recurse =
  match target with
  | To_up ->
    t.to_up <- t.to_up + 1;
    t.up m
  | To_down ->
    t.to_down <- t.to_down + 1;
    t.down m
  | Misroute -> t.misrouted <- t.misrouted + 1
  | To_node j ->
    if recurse then begin
      t.dequeued <- t.dequeued + 1;
      (* Account the forward as if it passed through the queue, so the
         idle flow-balance invariant holds for both disciplines. *)
      t.enqueued <- t.enqueued + 1;
      handle t j m ~recurse
    end
    else begin
      t.enqueued <- t.enqueued + 1;
      Rqueue.push (node t j).queue m;
      match t.metrics with
      | None -> ()
      | Some mt -> Metrics.queue_depth mt j (Rqueue.length t.nodes.(j).queue)
    end

let record_batch t n =
  t.batches <- t.batches + 1;
  t.max_batch <- Int.max t.max_batch n;
  t.total_batched <- t.total_batched + n;
  match t.metrics with None -> () | Some mt -> Metrics.batch_run mt n

(* Non-empty node with the highest priority; ties go to the earliest
   node, so graph traversal stays deterministic. *)
let rec next_ready_from t i best =
  if i < 0 then best
  else
    let best =
      if
        (not (Rqueue.is_empty t.nodes.(i).queue))
        && (best < 0 || t.nodes.(i).priority >= t.nodes.(best).priority)
      then i
      else best
    in
    next_ready_from t (i - 1) best

let next_ready t = next_ready_from t (t.nnodes - 1) (-1)

let pop t i =
  t.dequeued <- t.dequeued + 1;
  Rqueue.pop (node t i).queue

let step_conventional t =
  match next_ready t with
  | -1 -> false
  | i ->
    record_batch t 1;
    handle t i (pop t i) ~recurse:true;
    true

let step_ldlp t policy =
  match next_ready t with
  | -1 -> false
  | i when t.nodes.(i).entry ->
    (* Entry point: yield after one D-cache-sized batch so message data
       is still resident when the nodes further along run. *)
    let nd = t.nodes.(i) in
    let n = Batch.limit_fn policy ~len:(Rqueue.length nd.queue) ~size:nd.size_at in
    Invariant.check
      (n >= 1 && n <= Rqueue.length nd.queue)
      "Engine.step: batch limit outside [1, backlog]";
    record_batch t n;
    for _ = 1 to n do
      handle t i (pop t i) ~recurse:false
    done;
    true
  | i ->
    (* Run to completion: apply this node to every message it has queued
       before anything else runs. *)
    while not (Rqueue.is_empty t.nodes.(i).queue) do
      handle t i (pop t i) ~recurse:false
    done;
    true

let step t =
  match t.discipline with
  | Conventional -> step_conventional t
  | Ldlp policy -> step_ldlp t policy

let run t =
  while step t do
    ()
  done;
  (* Engine-level idle invariants; the facades layer their shape-specific
     conservation equations (which need to know which routes are
     terminal) on top of these. *)
  Invariant.check (pending t = 0) "Engine.run: idle with pending messages";
  Invariant.check
    (t.dequeued = t.enqueued)
    "Engine.run: enqueued messages not all handled at idle";
  Invariant.check
    (t.batches = 0 || t.max_batch >= 1)
    "Engine.run: recorded a batch smaller than 1";
  Invariant.check
    (t.total_batched <= t.dequeued)
    "Engine.run: more batched dequeues than dequeues"

let stats t =
  let names f =
    List.init t.nnodes (fun i -> (t.nodes.(i).layer.Layer.name, f t.nodes.(i)))
  in
  {
    injected = t.injected;
    to_up = t.to_up;
    to_down = t.to_down;
    consumed = t.consumed;
    misrouted = t.misrouted;
    shed = t.shed;
    batches = t.batches;
    max_batch = t.max_batch;
    total_batched = t.total_batched;
    per_node = names (fun n -> n.handled);
    per_node_runs = names (fun n -> n.runs);
  }

(* ---------- full-duplex construction ---------- *)

let duplex ~discipline ~layers ?up ?(wire = fun _ -> ()) ?on_handled ?on_consume
    ?intake_limit ?on_shed ?metrics () =
  if layers = [] then invalid_arg "Engine.duplex: empty stack";
  let t =
    create ~discipline ?up ~down:wire ?on_handled ?on_consume ?intake_limit
      ?on_shed ()
  in
  let layers = Array.of_list layers in
  let n = Array.length layers in
  let top = n - 1 in
  (* Receive nodes 0..n-1, bottom-first; [Send_down] crosses into the
     same layer's transmit node (added below as n+i). *)
  Array.iteri
    (fun i layer ->
      ignore
        (add_node t ~layer ~use_tx:false ~priority:i ~entry:(i = 0)
           ~up_route:(if i = top then To_up else To_node (i + 1))
           ~to_route:(fun name ->
             if i < top && layers.(i + 1).Layer.name = name then To_node (i + 1)
             else Misroute)
           ~down_route:(To_node (n + i))))
    layers;
  (* Transmit nodes n..2n-1: node n+i runs layer i's [handle_tx]; the
     whole transmit side outranks the whole receive side, descending
     toward the wire. *)
  Array.iteri
    (fun i layer ->
      (* Rename the transmit registration so [per_node] rows and metric
         sheets distinguish the two directions of one layer. *)
      let layer = { layer with Layer.name = layer.Layer.name ^ "/tx" } in
      ignore
        (add_node t ~layer ~use_tx:true
           ~priority:(n + (n - 1 - i))
           ~entry:(i = top)
           ~up_route:To_up
           ~to_route:(fun _ -> To_up)
           ~down_route:(if i = 0 then To_down else To_node (n + i - 1))))
    layers;
  t.duplex_split <- n;
  (match metrics with None -> () | Some m -> attach_metrics t m);
  t

let duplex_rx_entry t =
  if t.duplex_split < 0 then invalid_arg "Engine.duplex_rx_entry: not duplex";
  0

let duplex_tx_entry t =
  if t.duplex_split < 0 then invalid_arg "Engine.duplex_tx_entry: not duplex";
  t.nnodes - 1

let duplex_layer_names names = names @ List.map (fun n -> n ^ "/tx") names

let tx_runs t =
  if t.duplex_split < 0 then 0
  else begin
    let rec go i acc =
      if i >= t.nnodes then acc else go (i + 1) (acc + t.nodes.(i).runs)
    in
    go t.duplex_split 0
  end
