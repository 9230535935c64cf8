module Metrics = Ldlp_obs.Metrics

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

(* The facade owns the {e shape}: the name registry, parent edges and
   depths.  Scheduling lives entirely in {!Engine}: node priority is the
   negated depth (smallest depth = furthest from the roots = highest
   priority, ties toward registration order), and entry status tracks
   [is_root] — every node starts as an entry point and loses it the
   moment a layer registers below it. *)
type info = { idx : int; depth : int }

type 'a t = {
  eng : 'a Engine.t;
  names : (string, info) Hashtbl.t;
  mutable order : string list;  (* registration order, for determinism *)
}

let create ~discipline ?(up = fun _ -> ()) ?(down = fun _ -> ())
    ?on_handled ?on_consume ?intake_limit
    ?(on_shed = fun _ -> ()) () =
  (match intake_limit with
  | Some n when n < 1 -> invalid_arg "Graphsched.create: intake_limit < 1"
  | _ -> ());
  let eng =
    Engine.create ~discipline ~up ~down ?on_handled ?on_consume ?intake_limit
      ~on_shed ()
  in
  { eng; names = Hashtbl.create 16; order = [] }

let engine t = t.eng

(* No [find_opt], here or in [add_layer]'s [to_route]: injecting by name
   and [Deliver_to] allocate no option. *)
let find t name =
  match Hashtbl.find t.names name with
  | n -> n
  | exception Not_found -> invalid_arg ("Graphsched: unknown layer " ^ name)

let add_layer t ?(above = []) layer =
  let name = layer.Layer.name in
  if Hashtbl.mem t.names name then
    invalid_arg ("Graphsched.add_layer: duplicate layer " ^ name);
  let parents = List.map (fun p -> (p, find t p)) above in
  let depth =
    match parents with
    | [] -> 0
    | ps ->
      1 + List.fold_left (fun acc (_, p) -> Int.min acc p.depth) max_int ps
  in
  let up_route =
    match parents with
    | [] -> Engine.To_up
    | [ (_, p) ] -> Engine.To_node p.idx
    | _ :: _ :: _ ->
      (* Ambiguous fan-out: the handler must name its target. *)
      Engine.Misroute
  in
  let routes = List.map (fun (p, i) -> (p, Engine.To_node i.idx)) parents in
  let to_route target =
    match List.assoc target routes with
    | r -> r
    | exception Not_found -> Engine.Misroute
  in
  let idx =
    Engine.add_node t.eng ~layer ~use_tx:false ~priority:(-depth) ~entry:true
      ~up_route ~to_route ~down_route:Engine.To_down
  in
  List.iter (fun (_, p) -> Engine.set_entry t.eng p.idx false) parents;
  Hashtbl.replace t.names name { idx; depth };
  t.order <- t.order @ [ name ]

let roots t =
  List.filter (fun name -> Engine.is_entry t.eng (find t name).idx) t.order

(* Layers are registered incrementally, so unlike [Sched.create] the sheet
   attaches after the graph is built; the sheet rows must match
   registration order exactly. *)
let attach_metrics t m =
  if not (List.equal String.equal (Metrics.layer_names m) t.order) then
    invalid_arg "Graphsched.attach_metrics: sheet rows <> registration order";
  Engine.attach_metrics t.eng m

let try_inject t ~into msg = Engine.try_inject t.eng ~node:(find t into).idx msg

let inject t ~into msg = ignore (try_inject t ~into msg)

let backlog t ~into = Engine.backlog t.eng ~node:(find t into).idx

let pending t = Engine.pending t.eng

let step t = Engine.step t.eng

let stats t =
  let s = Engine.stats t.eng in
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
  Engine.run t.eng;
  (* Idle invariants specific to the graph shape.  Unlike the linear
     scheduler, [total_batched] only counts entry-point dequeues
     (forwarded messages drain uncounted), so coverage is an inequality
     here; terminal-outcome conservation assumes one terminal action per
     message, as everywhere in this repo. *)
  if Invariant.enabled () then begin
    let s = stats t in
    Invariant.check
      (s.total_batched <= s.injected)
      "Graphsched.run: more batched dequeues than injections";
    Invariant.check
      (s.injected = s.delivered + s.consumed + s.misrouted)
      "Graphsched.run: injected <> delivered + consumed + misrouted at idle"
  end
