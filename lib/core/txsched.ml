module Metrics = Ldlp_obs.Metrics

type stats = {
  submitted : int;
  transmitted : int;
  consumed : int;
  looped_up : int;
  shed : int;
  batches : int;
  max_batch : int;
  total_batched : int;
  per_layer : (string * int) list;
}

(* The transmit chain is {!Sched}'s mirror: node [i] is layer [i]
   (bottom-first, as everywhere) running [handle_tx]; priorities descend
   with the index (the layer closest to the wire is furthest from the
   top entry point), and only the top node takes submissions. *)
type 'a t = { eng : 'a Engine.t; entry : int }

let create ~discipline ~layers ?(wire = fun _ -> ()) ?(up = fun _ -> ())
    ?on_handled ?on_consume ?intake_limit
    ?(on_shed = fun _ -> ()) ?metrics () =
  if layers = [] then invalid_arg "Txsched.create: empty stack";
  (match intake_limit with
  | Some n when n < 1 -> invalid_arg "Txsched.create: intake_limit < 1"
  | _ -> ());
  let layers = Array.of_list layers in
  (match metrics with
  | Some m when Metrics.nlayers m <> Array.length layers ->
    invalid_arg "Txsched.create: metrics sheet layer count mismatch"
  | _ -> ());
  let eng =
    Engine.create ~discipline ~up ~down:wire ?on_handled ?on_consume
      ?intake_limit ~on_shed ()
  in
  let top = Array.length layers - 1 in
  Array.iteri
    (fun i layer ->
      ignore
        (Engine.add_node eng ~layer ~use_tx:true ~priority:(top - i)
           ~entry:(i = top) ~up_route:Engine.To_up
           ~to_route:(fun _ -> Engine.To_up)
           ~down_route:
             (if i = 0 then Engine.To_down else Engine.To_node (i - 1))))
    layers;
  (match metrics with None -> () | Some m -> Engine.attach_metrics eng m);
  { eng; entry = top }

let engine t = t.eng

let try_inject t msg = Engine.try_inject t.eng ~node:t.entry msg

let submit t msg = ignore (try_inject t msg)

let pending t = Engine.pending t.eng

let backlog t = Engine.backlog t.eng ~node:t.entry

let step t = Engine.step t.eng

let run t = Engine.run t.eng

let stats t =
  let s = Engine.stats t.eng in
  {
    submitted = s.Engine.injected;
    transmitted = s.Engine.to_down;
    consumed = s.Engine.consumed;
    looped_up = s.Engine.to_up;
    shed = s.Engine.shed;
    batches = s.Engine.batches;
    max_batch = s.Engine.max_batch;
    total_batched = s.Engine.total_batched;
    per_layer = s.Engine.per_node;
  }
