module Metrics = Ldlp_obs.Metrics

type discipline = Engine.discipline = Conventional | Ldlp of Batch.policy

type stats = {
  injected : int;
  delivered : int;
  consumed : int;
  sent_down : int;
  misrouted : int;
  shed : int;
  batches : int;
  max_batch : int;
  total_batched : int;
  per_layer : (string * int) list;
}

(* A linear receive chain is the degenerate graph: node [i] is layer [i],
   priorities ascend with the index (the layer furthest from the bottom
   entry point wins), and only node 0 takes arrivals. *)
type 'a t = 'a Engine.t

let create ~discipline ~layers ?(up = fun _ -> ()) ?(down = fun _ -> ())
    ?on_handled ?on_consume ?intake_limit
    ?(on_shed = fun _ -> ()) ?metrics () =
  if layers = [] then invalid_arg "Sched.create: empty stack";
  (match intake_limit with
  | Some n when n < 1 -> invalid_arg "Sched.create: intake_limit < 1"
  | _ -> ());
  let layers = Array.of_list layers in
  (match metrics with
  | Some m when Metrics.nlayers m <> Array.length layers ->
    invalid_arg "Sched.create: metrics sheet layer count mismatch"
  | _ -> ());
  let eng =
    Engine.create ~discipline ~up ~down ?on_handled ?on_consume ?intake_limit
      ~on_shed ()
  in
  let top = Array.length layers - 1 in
  Array.iteri
    (fun i layer ->
      ignore
        (Engine.add_node eng ~layer ~use_tx:false ~priority:i ~entry:(i = 0)
           ~up_route:(if i = top then Engine.To_up else Engine.To_node (i + 1))
           ~to_route:(fun name ->
             (* In a linear chain, a named delivery is only valid when it
                names the next layer up. *)
             if i < top && layers.(i + 1).Layer.name = name then
               Engine.To_node (i + 1)
             else Engine.Misroute)
           ~down_route:Engine.To_down))
    layers;
  (match metrics with None -> () | Some m -> Engine.attach_metrics eng m);
  eng

let engine t = t

let try_inject t msg = Engine.try_inject t ~node:0 msg

let inject t msg = ignore (try_inject t msg)

let pending = Engine.pending

let backlog t = Engine.backlog t ~node:0

let step = Engine.step

let stats t =
  let s = Engine.stats t in
  {
    injected = s.Engine.injected;
    delivered = s.Engine.to_up;
    consumed = s.Engine.consumed;
    sent_down = s.Engine.to_down;
    misrouted = s.Engine.misrouted;
    shed = s.Engine.shed;
    batches = s.Engine.batches;
    max_batch = s.Engine.max_batch;
    total_batched = s.Engine.total_batched;
    per_layer = s.Engine.per_node;
  }

let run t =
  Engine.run t;
  (* Idle invariants specific to the chain shape.  [total_batched] counts
     arrival-queue dequeues, so at idle every injected message must have
     been dequeued exactly once; conservation of terminal outcomes holds
     for any stack whose handlers emit one terminal action per message
     (all stacks in this repo).  The stats projection allocates, so it is
     only materialised when the invariant gate is actually on — [run] on
     the hot path must not touch the heap. *)
  if Invariant.enabled () then begin
    let s = stats t in
    Invariant.check
      (s.total_batched = s.injected)
      "Sched.run: batches do not cover all injected messages";
    Invariant.check
      (s.injected = s.delivered + s.consumed + s.misrouted)
      "Sched.run: injected <> delivered + consumed + misrouted at idle"
  end

let layer_names t =
  List.map fst (Engine.stats t).Engine.per_node
