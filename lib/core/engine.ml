module Metrics = Ldlp_obs.Metrics
module Obs = Ldlp_obs.Obs

type discipline = Conventional | Ldlp of Batch.policy

type target = To_node of int | To_up | To_down | Misroute

type 'a node = {
  idx : int;
  layer : 'a Layer.t;
  handler : 'a Msg.t -> 'a Layer.action list;
      (* [layer.handle] or [layer.handle_tx], chosen once at [add_node]. *)
  priority : int;
  entry : bool;
  up_route : target;
  to_route : string -> target;
  down_route : target;
  mutable up_dest : 'a dest;
  mutable down_dest : 'a dest;
  (* The queue: a ring of capacity 0 or 2^k (k >= 6), indexed with [land];
     typed, so an access needs no float-array tag test. *)
  mutable ring : 'a Msg.t array;
  mutable head : int;
  mutable len : int;
  mutable handled : int;
  mutable runs : int;
}

(* A route as the hop follows it: [To_node j] resolved to node [j]
   itself.  [Unresolved j] names a node that did not exist at resolution;
   taking it looks [j] up, which raises unless the node has appeared. *)
and 'a dest = Node of 'a node | Up | Down | Drop | Unresolved of int

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

(* What built the engine: {!run} adds the receive chain's conservation
   checks, and the duplex helpers find the transmit side. *)
type shape = Graph | Rx_chain | Tx_chain | Duplex of int  (* first tx node *)

type 'a t = {
  discipline : discipline;
  mutable nodes : 'a node array;
  mutable nnodes : int;
  mutable order : 'a node array;
      (* Nodes by priority, ties in index order; the first non-empty one
         runs next.  Rebuilt with the routes while [resolved] is false. *)
  mutable resolved : bool;
  up : 'a Msg.t -> unit;
  down : 'a Msg.t -> unit;
  on_handled : (int -> 'a Layer.t -> 'a Msg.t -> unit) option;
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
  mutable shape : shape;
}

let create ~discipline ?(up = fun _ -> ()) ?(down = fun _ -> ()) ?on_handled
    ?(on_consume = fun _ -> ()) ?intake_limit ?(on_shed = fun _ -> ()) () =
  (match intake_limit with
  | Some n when n < 1 -> invalid_arg "Engine.create: intake_limit < 1"
  | _ -> ());
  (match discipline with
  | Ldlp (Batch.Fixed n) when n < 1 ->
    invalid_arg "Engine.create: Fixed batch size < 1"
  | Ldlp (Batch.Fixed _ | Batch.Dcache_fit _ | Batch.All) | Conventional -> ());
  {
    discipline;
    nodes = [||];
    nnodes = 0;
    order = [||];
    resolved = true;
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
    shape = Graph;
  }

let node_count t = t.nnodes

let node t i =
  if i < 0 || i >= t.nnodes then invalid_arg "Engine: node index out of range";
  t.nodes.(i)

let node_name t i = (node t i).layer.Layer.name

let add_node t ~layer ~use_tx ~priority ~entry ~up_route ~to_route ~down_route =
  let i = t.nnodes in
  let n =
    {
      idx = i;
      layer;
      handler = (if use_tx then layer.Layer.handle_tx else layer.Layer.handle);
      priority;
      entry;
      up_route;
      to_route;
      down_route;
      (* Set by [resolve] before the next step. *)
      up_dest = Unresolved (-1);
      down_dest = Unresolved (-1);
      ring = [||];
      head = 0;
      len = 0;
      handled = 0;
      runs = 0;
    }
  in
  if i = Array.length t.nodes then begin
    let grown = Array.make (Int.max 4 (2 * i)) n in
    Array.blit t.nodes 0 grown 0 i;
    t.nodes <- grown
  end;
  t.nodes.(i) <- n;
  t.nnodes <- i + 1;
  t.resolved <- false;
  i

let dest_of t = function
  | To_node j ->
    if j >= 0 && j < t.nnodes then Node t.nodes.(j) else Unresolved j
  | To_up -> Up
  | To_down -> Down
  | Misroute -> Drop

(* Once per [add_node] burst, before the next step: point every route at
   its node and sort the nodes into scheduling order (the stable sort
   keeps equal priorities in index order). *)
let resolve t =
  for i = 0 to t.nnodes - 1 do
    let n = t.nodes.(i) in
    n.up_dest <- dest_of t n.up_route;
    n.down_dest <- dest_of t n.down_route
  done;
  let order = Array.sub t.nodes 0 t.nnodes in
  Array.stable_sort (fun a b -> Int.compare b.priority a.priority) order;
  t.order <- order;
  t.resolved <- true

let attach_metrics t m =
  if Metrics.nlayers m <> t.nnodes then
    invalid_arg "Engine.attach_metrics: sheet layer count <> node count";
  (* The "shed" scalar exists only on engines that can actually shed, so
     sheets of unlimited engines render exactly as before. *)
  if t.intake_limit <> None then t.shed_sc <- Metrics.scalar m "shed";
  t.metrics <- Some m

(* ---------- the node ring ---------- *)

let grow n fill =
  let cap = Array.length n.ring in
  let ring = Array.make (Int.max 64 (2 * cap)) fill in
  for k = 0 to n.len - 1 do
    ring.(k) <- n.ring.((n.head + k) land (cap - 1))
  done;
  n.ring <- ring;
  n.head <- 0

(* The masked index is always inside the ring, which is non-empty after
   [grow], so the accesses skip the bounds check. *)
let push n m =
  if n.len = Array.length n.ring then grow n m;
  Array.unsafe_set n.ring ((n.head + n.len) land (Array.length n.ring - 1)) m;
  n.len <- n.len + 1

(* The caller has seen [n.len > 0]. *)
let pop n =
  let m = Array.unsafe_get n.ring n.head in
  n.head <- (n.head + 1) land (Array.length n.ring - 1);
  n.len <- n.len - 1;
  m

let try_inject t ~node:i msg =
  let n = node t i in
  match t.intake_limit with
  | Some limit when n.len >= limit ->
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
    push n msg;
    (match t.metrics with
    | None -> ()
    | Some mt ->
      Metrics.arrival mt ~depth:n.len;
      Metrics.queue_depth mt i n.len);
    true

let inject t ~node msg = ignore (try_inject t ~node msg)

let backlog t ~node:i = (node t i).len

(* Toplevel recursions, not local [let rec]s: a local recursive helper
   that captures [t] is a fresh closure on every call, and [pending] /
   [ready_from] run once per quantum / per step on the allocation-free
   hot path. *)
let rec pending_from t i acc =
  if i >= t.nnodes then acc else pending_from t (i + 1) (acc + t.nodes.(i).len)

let pending t = pending_from t 0 0

(* ---------- the hop ---------- *)

(* Run one message through node [n]'s handler and dispatch its actions.
   [recurse] processes node routes immediately, depth-first
   (conventional); otherwise the target's ring receives them (LDLP).
   The dispatch loop is hand-rolled recursion — no [List.iter] closure,
   no per-call handler closure — so a quantum over layers that answer
   with the static {!Layer.up_only}/[down_only] lists touches the heap
   not at all. *)
let rec handle t n msg ~recurse =
  if t.last_ran <> n.idx then begin
    n.runs <- n.runs + 1;
    t.last_ran <- n.idx
  end;
  (match t.on_handled with None -> () | Some f -> f n.idx n.layer msg);
  n.handled <- n.handled + 1;
  let actions =
    match t.metrics with
    | None -> n.handler msg
    | Some mt ->
      Metrics.handled mt n.idx;
      if Obs.enabled () then begin
        (* Gc sampling around the handler only (not the dispatch below),
           so a recursive traversal in conventional mode cannot
           double-attribute one node's allocations to the node that
           forwarded to it. *)
        let w0 = Gc.minor_words () in
        let actions = n.handler msg in
        Metrics.alloc mt n.idx (int_of_float (Gc.minor_words () -. w0));
        actions
      end
      else n.handler msg
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
    | Layer.Up -> route t n.up_dest msg ~recurse
    | Layer.Down -> route t n.down_dest msg ~recurse
    | Layer.Deliver_up m -> route t n.up_dest m ~recurse
    | Layer.Deliver_to (name, m) -> (
      (* Named per message, so resolved per message. *)
      match n.to_route name with
      | To_node j -> forward t (node t j) m ~recurse
      | r -> route t (dest_of t r) m ~recurse)
    | Layer.Send_down m -> route t n.down_dest m ~recurse);
    dispatch t n msg rest ~recurse

and route t dest m ~recurse =
  match dest with
  | Node n -> forward t n m ~recurse
  | Up ->
    t.to_up <- t.to_up + 1;
    t.up m
  | Down ->
    t.to_down <- t.to_down + 1;
    t.down m
  | Drop -> t.misrouted <- t.misrouted + 1
  | Unresolved j -> forward t (node t j) m ~recurse

and forward t n m ~recurse =
  (* A recursive forward is accounted as if it passed through the ring,
     so the idle flow-balance invariant holds for both disciplines. *)
  t.enqueued <- t.enqueued + 1;
  if recurse then begin
    t.dequeued <- t.dequeued + 1;
    handle t n m ~recurse
  end
  else begin
    push n m;
    match t.metrics with
    | None -> ()
    | Some mt -> Metrics.queue_depth mt n.idx n.len
  end

let record_batch t n =
  t.batches <- t.batches + 1;
  t.max_batch <- Int.max t.max_batch n;
  t.total_batched <- t.total_batched + n;
  match t.metrics with None -> () | Some mt -> Metrics.batch_run mt n

(* Position in [order] of the first non-empty node, or -1. *)
let rec ready_from order k =
  if k >= Array.length order then -1
  else if (Array.unsafe_get order k).len > 0 then k
  else ready_from order (k + 1)

(* [Batch.limit]'s [Dcache_fit] arithmetic over the sizes of the messages
   in the entry node's ring, read in place. *)
let rec dcache_count n ~cache_bytes ~per_msg_overhead k used =
  if k >= n.len then k
  else begin
    let m =
      Array.unsafe_get n.ring ((n.head + k) land (Array.length n.ring - 1))
    in
    let used = used + m.Msg.size + per_msg_overhead in
    if used > cache_bytes && k > 0 then k
    else dcache_count n ~cache_bytes ~per_msg_overhead (k + 1) used
  end

let entry_limit policy n =
  match policy with
  | Batch.All -> n.len
  | Batch.Fixed b -> Int.min b n.len
  | Batch.Dcache_fit { cache_bytes; per_msg_overhead } ->
    dcache_count n ~cache_bytes ~per_msg_overhead 0 0

let step t =
  if not t.resolved then resolve t;
  let k = ready_from t.order 0 in
  if k < 0 then false
  else begin
    let n = Array.unsafe_get t.order k in
    (match t.discipline with
    | Conventional ->
      record_batch t 1;
      t.dequeued <- t.dequeued + 1;
      handle t n (pop n) ~recurse:true
    | Ldlp policy ->
      if n.entry then begin
        (* Entry point: yield after one D-cache-sized batch so message
           data is still resident when the nodes further along run. *)
        let b = entry_limit policy n in
        Invariant.check
          (b >= 1 && b <= n.len)
          "Engine.step: batch limit outside [1, backlog]";
        record_batch t b;
        for _ = 1 to b do
          t.dequeued <- t.dequeued + 1;
          handle t n (pop n) ~recurse:false
        done
      end
      else
        (* Run to completion: apply this node to every message it has
           queued before anything else runs. *)
        while n.len > 0 do
          t.dequeued <- t.dequeued + 1;
          handle t n (pop n) ~recurse:false
        done);
    true
  end

(* Toplevel, so [Invariant.checkf] takes them without a closure. *)
let drained t = pending t = 0

let balanced t = t.dequeued = t.enqueued

let batches_sane t = t.batches = 0 || t.max_batch >= 1

let batched_le_dequeued t = t.total_batched <= t.dequeued

(* A receive chain's only injection point is node 0 and its only
   terminal routes are the two sinks, so at idle every injection was
   batched exactly once and ended at the top, in a layer or misrouted
   ([Send_down] replies are fresh messages; every stack in this repo
   answers each message with one terminal action).  Other shapes pass. *)
let rx_batched_once t =
  match t.shape with
  | Rx_chain -> t.total_batched = t.injected
  | Graph | Tx_chain | Duplex _ -> true

let rx_conserved t =
  match t.shape with
  | Rx_chain -> t.injected = t.to_up + t.consumed + t.misrouted
  | Graph | Tx_chain | Duplex _ -> true

let run t =
  while step t do
    ()
  done;
  Invariant.checkf drained t "Engine.run: idle with pending messages";
  Invariant.checkf balanced t
    "Engine.run: enqueued messages not all handled at idle";
  Invariant.checkf batches_sane t "Engine.run: recorded a batch smaller than 1";
  Invariant.checkf batched_le_dequeued t
    "Engine.run: more batched dequeues than dequeues";
  Invariant.checkf rx_batched_once t
    "Engine.run: receive-chain batches do not cover all injected messages";
  Invariant.checkf rx_conserved t
    "Engine.run: receive chain idle with injected <> to_up + consumed \
     + misrouted"

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

(* ---------- chains and full duplex ---------- *)

let stack what layers =
  if layers = [] then invalid_arg (what ^ ": empty stack");
  Array.of_list layers

(* Receive nodes [0 .. n-1] over the bottom-first [layers]: node [i] runs
   layer [i]'s [handle], priorities ascend (the layer furthest from the
   bottom entry wins), and a named delivery is valid only when it names
   the next layer up.  Layer [i]'s [Send_down] goes to [down_route i]. *)
let add_rx_nodes t layers ~down_route =
  let top = Array.length layers - 1 in
  Array.iteri
    (fun i layer ->
      ignore
        (add_node t ~layer ~use_tx:false ~priority:i ~entry:(i = 0)
           ~up_route:(if i = top then To_up else To_node (i + 1))
           ~to_route:(fun name ->
             if i < top && layers.(i + 1).Layer.name = name then To_node (i + 1)
             else Misroute)
           ~down_route:(down_route i)))
    layers

(* Transmit nodes [base .. base+n-1]: node [base + i] runs layer [i]'s
   [handle_tx], priorities descend toward the wire from the top, which
   takes submissions.  [Deliver_up] and [Deliver_to] go to the up sink. *)
let add_tx_nodes t layers ~base ~rename =
  let n = Array.length layers in
  Array.iteri
    (fun i layer ->
      ignore
        (add_node t ~layer:(rename layer) ~use_tx:true
           ~priority:(base + (n - 1 - i))
           ~entry:(i = n - 1) ~up_route:To_up
           ~to_route:(fun _ -> To_up)
           ~down_route:(if i = 0 then To_down else To_node (base + i - 1))))
    layers

let finish t shape metrics =
  t.shape <- shape;
  (match metrics with None -> () | Some m -> attach_metrics t m);
  t

let rx_chain ~discipline ~layers ?up ?down ?on_handled ?on_consume
    ?intake_limit ?on_shed ?metrics () =
  let layers = stack "Engine.rx_chain" layers in
  let t =
    create ~discipline ?up ?down ?on_handled ?on_consume ?intake_limit ?on_shed
      ()
  in
  add_rx_nodes t layers ~down_route:(fun _ -> To_down);
  finish t Rx_chain metrics

let tx_chain ~discipline ~layers ?wire ?up ?on_handled ?on_consume
    ?intake_limit ?on_shed ?metrics () =
  let layers = stack "Engine.tx_chain" layers in
  let t =
    create ~discipline ?up ?down:wire ?on_handled ?on_consume ?intake_limit
      ?on_shed ()
  in
  add_tx_nodes t layers ~base:0 ~rename:Fun.id;
  finish t Tx_chain metrics

let duplex ~discipline ~layers ?up ?wire ?on_handled ?on_consume
    ?intake_limit ?on_shed ?metrics () =
  let layers = stack "Engine.duplex" layers in
  let t =
    create ~discipline ?up ?down:wire ?on_handled ?on_consume ?intake_limit
      ?on_shed ()
  in
  let n = Array.length layers in
  (* [Send_down] from receive node [i] crosses into the same layer's
     transmit node [n + i]; the transmit side's rows carry a "/tx" suffix
     so [per_node] and metric sheets tell the two directions apart. *)
  add_rx_nodes t layers ~down_route:(fun i -> To_node (n + i));
  add_tx_nodes t layers ~base:n ~rename:(fun layer ->
      { layer with Layer.name = layer.Layer.name ^ "/tx" });
  finish t (Duplex n) metrics

let duplex_rx_entry t =
  match t.shape with
  | Duplex _ -> 0
  | Graph | Rx_chain | Tx_chain ->
    invalid_arg "Engine.duplex_rx_entry: not duplex"

let duplex_tx_entry t =
  match t.shape with
  | Duplex _ -> t.nnodes - 1
  | Graph | Rx_chain | Tx_chain ->
    invalid_arg "Engine.duplex_tx_entry: not duplex"

let duplex_layer_names names = names @ List.map (fun n -> n ^ "/tx") names

let rec runs_from t i acc =
  if i >= t.nnodes then acc else runs_from t (i + 1) (acc + t.nodes.(i).runs)

let tx_runs t =
  match t.shape with
  | Duplex split -> runs_from t split 0
  | Graph | Rx_chain | Tx_chain -> 0
