open Ldlp_core

type behaviour = Pass | Consume_every of int | Reply_every of int

type spec = {
  layers : behaviour list;
  msgs : (int * int) list;
  policy : Batch.policy;
  interleave : int;
}

let pp_behaviour ppf = function
  | Pass -> Format.fprintf ppf "pass"
  | Consume_every k -> Format.fprintf ppf "consume/%d" k
  | Reply_every k -> Format.fprintf ppf "reply/%d" k

let pp_spec ppf s =
  Format.fprintf ppf "stack=[%a] msgs=%d policy=%a interleave=%d"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";")
       pp_behaviour)
    s.layers (List.length s.msgs) Batch.pp s.policy s.interleave

type trace = {
  visits : int list array;
  delivered_order : int list;
  stats : Engine.stats;
}

(* Payload: the message's injection index.  Behaviours depend only on it,
   so both disciplines make identical per-message decisions regardless of
   visit order. *)
let layer_of_behaviour i behaviour =
  let divides k n = k > 0 && n mod k = 0 in
  Layer.v ~name:(Format.asprintf "L%d-%a" i pp_behaviour behaviour)
    (fun msg ->
      match behaviour with
      | Pass -> [ Layer.Deliver_up msg ]
      | Consume_every k ->
        if divides k msg.Msg.payload then [ Layer.Consume ]
        else [ Layer.Deliver_up msg ]
      | Reply_every k ->
        if divides k msg.Msg.payload then
          [
            Layer.Send_down (Msg.make ~size:40 (-msg.Msg.payload - 1));
            Layer.Deliver_up msg;
          ]
        else [ Layer.Deliver_up msg ])

let run_spec discipline spec =
  if spec.layers = [] then invalid_arg "Sched_oracle.run_spec: empty stack";
  let n = List.length spec.msgs in
  let visits = Array.make (max n 1) [] in
  let delivered = ref [] in
  let layers = List.mapi layer_of_behaviour spec.layers in
  let eng =
    Engine.rx_chain ~discipline ~layers
      ~up:(fun m -> delivered := m.Msg.payload :: !delivered)
      ~on_handled:(fun i _ m ->
        let idx = m.Msg.payload in
        if idx >= 0 then visits.(idx) <- i :: visits.(idx))
      ()
  in
  let chunk = if spec.interleave <= 0 then max n 1 else spec.interleave in
  List.iteri
    (fun idx (flow, size) ->
      Engine.inject eng ~node:0 (Msg.make ~flow ~size idx);
      if (idx + 1) mod chunk = 0 then ignore (Engine.step eng))
    spec.msgs;
  Engine.run eng;
  Array.iteri (fun i l -> visits.(i) <- List.rev l) visits;
  {
    visits;
    delivered_order = List.rev !delivered;
    stats = Engine.stats eng;
  }

let conserved (st : Engine.stats) ~pending =
  pending = 0
  && st.Engine.injected
     = st.Engine.to_up + st.Engine.consumed + st.Engine.misrouted
  && st.Engine.total_batched = st.Engine.injected
  && (st.Engine.batches = 0 || st.Engine.max_batch >= 1)
  && st.Engine.max_batch <= st.Engine.total_batched

let multiset l = List.sort compare l

let flows_of spec = List.sort_uniq compare (List.map fst spec.msgs)

let flow_order spec (t : trace) flow =
  List.filter
    (fun idx -> fst (List.nth spec.msgs idx) = flow)
    t.delivered_order

let equivalent spec =
  let conv = run_spec Engine.Conventional spec in
  let ldlp = run_spec (Engine.Ldlp spec.policy) spec in
  let n = List.length spec.msgs in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec check_visits i =
    if i >= n then Ok ()
    else if multiset conv.visits.(i) <> multiset ldlp.visits.(i) then
      err "msg %d layer-visit multisets differ: conv=[%s] ldlp=[%s]" i
        (String.concat ";" (List.map string_of_int conv.visits.(i)))
        (String.concat ";" (List.map string_of_int ldlp.visits.(i)))
    else check_visits (i + 1)
  in
  let same field a b = if a = b then Ok () else err "%s: conv=%d ldlp=%d" field a b in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let* () = check_visits 0 in
  let* () = same "delivered" conv.stats.Engine.to_up ldlp.stats.Engine.to_up in
  let* () = same "consumed" conv.stats.Engine.consumed ldlp.stats.Engine.consumed in
  let* () = same "sent_down" conv.stats.Engine.to_down ldlp.stats.Engine.to_down in
  let* () = same "misrouted" conv.stats.Engine.misrouted ldlp.stats.Engine.misrouted in
  let* () =
    if not (conserved conv.stats ~pending:0) then
      err "conventional run violates conservation"
    else Ok ()
  in
  let* () =
    if not (conserved ldlp.stats ~pending:0) then
      err "ldlp run violates conservation"
    else Ok ()
  in
  let rec check_flows = function
    | [] -> Ok ()
    | f :: rest ->
      if flow_order spec conv f <> flow_order spec ldlp f then
        err "flow %d delivery order differs" f
      else check_flows rest
  in
  check_flows (flows_of spec)

(* ---------- transmit-side equivalence ---------- *)

(* The same declarative behaviours, installed as [handle_tx]: [Pass]
   forwards toward the wire, [Consume_every] absorbs, [Reply_every] loops
   a notification up (a send-completion event) before forwarding the
   original.  The receive handler is never invoked by a transmit chain. *)
let layer_of_behaviour_tx i behaviour =
  let divides k n = k > 0 && n mod k = 0 in
  Layer.v ~name:(Format.asprintf "L%d-%a" i pp_behaviour behaviour)
    ~tx:(fun msg ->
      match behaviour with
      | Pass -> [ Layer.Send_down msg ]
      | Consume_every k ->
        if divides k msg.Msg.payload then [ Layer.Consume ]
        else [ Layer.Send_down msg ]
      | Reply_every k ->
        if divides k msg.Msg.payload then
          [
            Layer.Deliver_up (Msg.make ~size:40 (-msg.Msg.payload - 1));
            Layer.Send_down msg;
          ]
        else [ Layer.Send_down msg ])
    (fun msg -> [ Layer.Deliver_up msg ])

type trace_tx = {
  tx_visits : int list array;
  wire_order : int list;
  tx_stats : Engine.stats;
}

let run_spec_tx discipline spec =
  if spec.layers = [] then invalid_arg "Sched_oracle.run_spec_tx: empty stack";
  let n = List.length spec.msgs in
  let visits = Array.make (max n 1) [] in
  let wire = ref [] in
  let layers = List.mapi layer_of_behaviour_tx spec.layers in
  let top = List.length layers - 1 in
  let eng =
    Engine.tx_chain ~discipline ~layers
      ~wire:(fun m -> wire := m.Msg.payload :: !wire)
      ~on_handled:(fun i _ m ->
        let idx = m.Msg.payload in
        if idx >= 0 then visits.(idx) <- i :: visits.(idx))
      ()
  in
  let chunk = if spec.interleave <= 0 then max n 1 else spec.interleave in
  List.iteri
    (fun idx (flow, size) ->
      Engine.inject eng ~node:top (Msg.make ~flow ~size idx);
      if (idx + 1) mod chunk = 0 then ignore (Engine.step eng))
    spec.msgs;
  Engine.run eng;
  Array.iteri (fun i l -> visits.(i) <- List.rev l) visits;
  {
    tx_visits = visits;
    wire_order = List.rev !wire;
    tx_stats = Engine.stats eng;
  }

(* Transmit conservation: every submission terminates at the wire or is
   consumed ([Deliver_up] notifications are fresh messages, not
   submissions), and — the entry queue being the only injection point —
   batches cover every submission under both disciplines. *)
let conserved_tx (st : Engine.stats) ~pending =
  pending = 0
  && st.Engine.injected = st.Engine.to_down + st.Engine.consumed
  && st.Engine.total_batched = st.Engine.injected
  && (st.Engine.batches = 0 || st.Engine.max_batch >= 1)
  && st.Engine.max_batch <= st.Engine.total_batched

let equivalent_tx spec =
  let conv = run_spec_tx Engine.Conventional spec in
  let ldlp = run_spec_tx (Engine.Ldlp spec.policy) spec in
  let n = List.length spec.msgs in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec check_visits i =
    if i >= n then Ok ()
    else if multiset conv.tx_visits.(i) <> multiset ldlp.tx_visits.(i) then
      err "tx msg %d layer-visit multisets differ: conv=[%s] ldlp=[%s]" i
        (String.concat ";" (List.map string_of_int conv.tx_visits.(i)))
        (String.concat ";" (List.map string_of_int ldlp.tx_visits.(i)))
    else check_visits (i + 1)
  in
  let same field a b =
    if a = b then Ok () else err "tx %s: conv=%d ldlp=%d" field a b
  in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let* () = check_visits 0 in
  let* () =
    same "transmitted" conv.tx_stats.Engine.to_down
      ldlp.tx_stats.Engine.to_down
  in
  let* () =
    same "consumed" conv.tx_stats.Engine.consumed ldlp.tx_stats.Engine.consumed
  in
  let* () =
    same "looped_up" conv.tx_stats.Engine.to_up ldlp.tx_stats.Engine.to_up
  in
  let* () =
    if not (conserved_tx conv.tx_stats ~pending:0) then
      err "conventional tx run violates conservation"
    else Ok ()
  in
  let* () =
    if not (conserved_tx ldlp.tx_stats ~pending:0) then
      err "ldlp tx run violates conservation"
    else Ok ()
  in
  let wire_flow t flow =
    List.filter (fun idx -> fst (List.nth spec.msgs idx) = flow) t.wire_order
  in
  let rec check_flows = function
    | [] -> Ok ()
    | f :: rest ->
      if wire_flow conv f <> wire_flow ldlp f then
        err "tx flow %d wire order differs" f
      else check_flows rest
  in
  check_flows (flows_of spec)

(* ---------- duplex equivalence ---------- *)

type trace_duplex = {
  dx_visits : int list array;  (* over 2n nodes: rx 0..n-1, tx n..2n-1 *)
  dx_delivered_order : int list;
  dx_wire_order : int list;  (* decoded reply indices, wire order *)
  dx_stats : Engine.stats;
}

(* The receive behaviours drive a full-duplex engine: a [Reply_every]
   layer's [Send_down] now crosses into the same layer's transmit node and
   the reply descends the (passthrough) transmit side to the wire, instead
   of exiting at a sink — the two-directions-one-engine arrangement. *)
let run_spec_duplex discipline spec =
  if spec.layers = [] then
    invalid_arg "Sched_oracle.run_spec_duplex: empty stack";
  let n = List.length spec.msgs in
  let visits = Array.make (max n 1) [] in
  let delivered = ref [] in
  let wire = ref [] in
  let layers = List.mapi layer_of_behaviour spec.layers in
  let eng =
    Engine.duplex ~discipline ~layers
      ~up:(fun m -> delivered := m.Msg.payload :: !delivered)
      ~wire:(fun m -> wire := (-m.Msg.payload - 1) :: !wire)
      ~on_handled:(fun i _ m ->
        let idx = m.Msg.payload in
        if idx >= 0 then visits.(idx) <- i :: visits.(idx)
        else
          let orig = -idx - 1 in
          visits.(orig) <- i :: visits.(orig))
      ()
  in
  let rx = Engine.duplex_rx_entry eng in
  let chunk = if spec.interleave <= 0 then max n 1 else spec.interleave in
  List.iteri
    (fun idx (flow, size) ->
      Engine.inject eng ~node:rx (Msg.make ~flow ~size idx);
      if (idx + 1) mod chunk = 0 then ignore (Engine.step eng))
    spec.msgs;
  Engine.run eng;
  Array.iteri (fun i l -> visits.(i) <- List.rev l) visits;
  {
    dx_visits = visits;
    dx_delivered_order = List.rev !delivered;
    dx_wire_order = List.rev !wire;
    dx_stats = Engine.stats eng;
  }

let equivalent_duplex spec =
  let conv = run_spec_duplex Engine.Conventional spec in
  let ldlp = run_spec_duplex (Engine.Ldlp spec.policy) spec in
  let n = List.length spec.msgs in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec check_visits i =
    if i >= n then Ok ()
    else if multiset conv.dx_visits.(i) <> multiset ldlp.dx_visits.(i) then
      err "duplex msg %d node-visit multisets differ: conv=[%s] ldlp=[%s]" i
        (String.concat ";" (List.map string_of_int conv.dx_visits.(i)))
        (String.concat ";" (List.map string_of_int ldlp.dx_visits.(i)))
    else check_visits (i + 1)
  in
  let same field a b =
    if a = b then Ok () else err "duplex %s: conv=%d ldlp=%d" field a b
  in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let* () = check_visits 0 in
  let* () = same "to_up" conv.dx_stats.Engine.to_up ldlp.dx_stats.Engine.to_up in
  let* () =
    same "consumed" conv.dx_stats.Engine.consumed ldlp.dx_stats.Engine.consumed
  in
  let* () =
    same "to_down" conv.dx_stats.Engine.to_down ldlp.dx_stats.Engine.to_down
  in
  let* () =
    same "misrouted" conv.dx_stats.Engine.misrouted
      ldlp.dx_stats.Engine.misrouted
  in
  (* Originals terminate above, at a consuming layer, or misrouted; every
     reply reaches the wire through the passthrough transmit side. *)
  let dx_conserved (st : Engine.stats) =
    st.Engine.injected
    = st.Engine.to_up + st.Engine.consumed + st.Engine.misrouted
  in
  let* () =
    if not (dx_conserved conv.dx_stats) then
      err "conventional duplex run violates conservation"
    else Ok ()
  in
  let* () =
    if not (dx_conserved ldlp.dx_stats) then
      err "ldlp duplex run violates conservation"
    else Ok ()
  in
  let flow_of idx = fst (List.nth spec.msgs idx) in
  let per_flow order flow = List.filter (fun idx -> flow_of idx = flow) order in
  (* Wire order is only a multiset: replies originating at different
     receive layers legitimately interleave differently under LDLP (the
     receive oracle likewise never constrains down-sink order). *)
  let* () =
    if multiset conv.dx_wire_order <> multiset ldlp.dx_wire_order then
      err "duplex wire multisets differ"
    else Ok ()
  in
  let rec check_flows = function
    | [] -> Ok ()
    | f :: rest ->
      if
        per_flow conv.dx_delivered_order f <> per_flow ldlp.dx_delivered_order f
      then err "duplex flow %d delivery order differs" f
      else check_flows rest
  in
  check_flows (flows_of spec)

let random_spec ~rng =
  let module R = Ldlp_sim.Rng in
  let nlayers = 1 + R.int rng 6 in
  let layers =
    List.init nlayers (fun _ ->
        match R.int rng 10 with
        | r when r < 6 -> Pass
        | r when r < 8 -> Consume_every (2 + R.int rng 5)
        | _ -> Reply_every (2 + R.int rng 5))
  in
  let nmsgs = R.int rng 81 in
  let flows = 1 + R.int rng 4 in
  let msgs =
    List.init nmsgs (fun _ -> (R.int rng flows, R.int rng 4096))
  in
  let policy =
    match R.int rng 4 with
    | 0 -> Batch.All
    | 1 -> Batch.Fixed (1 + R.int rng 10)
    | 2 -> Batch.paper_default
    | _ ->
      Batch.Dcache_fit
        { cache_bytes = 512 + R.int rng 8192; per_msg_overhead = R.int rng 64 }
  in
  let interleave = if R.bool rng 0.5 then 0 else 1 + R.int rng 10 in
  { layers; msgs; policy; interleave }

let run_random ~seed ~cases =
  let rng = Ldlp_sim.Rng.create ~seed in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let rec go i =
    if i >= cases then Ok cases
    else begin
      let spec = random_spec ~rng in
      match
        let* () = equivalent spec in
        let* () = equivalent_tx spec in
        equivalent_duplex spec
      with
      | Ok () -> go (i + 1)
      | Error e -> Error (Format.asprintf "case %d (%a): %s" i pp_spec spec e)
    end
  in
  go 0
