(* Engine-level tests: conservation of both chains on random stacks
   under both disciplines and intake limits, transmit-side intake
   shedding, the full-duplex topology (same-pass ACK drainage,
   conservation, shedding at both entries), the node ring against
   [Stdlib.Queue], the precomputed schedule against a scan-every-node
   reference, batch-policy validation, the zero-allocation quantum pins,
   and protocol graphs built node by node with {!Engine.add_node}
   ([graph_suite]). *)

open Ldlp_core

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------- random stacks for the chain conservation property ---------- *)

type case = {
  behs : int list;  (* per-layer behaviour selector, bottom-first *)
  nmsgs : int;
  disc : int;  (* 0 = Conventional, 1 = Ldlp All, 2 = Ldlp paper_default *)
  limit : int option;
}

let pp_case c =
  Printf.sprintf "{behs=[%s]; nmsgs=%d; disc=%d; limit=%s}"
    (String.concat ";" (List.map string_of_int c.behs))
    c.nmsgs c.disc
    (match c.limit with None -> "none" | Some l -> string_of_int l)

let gen_case =
  QCheck.Gen.(
    int_range 1 5 >>= fun n ->
    list_repeat n (int_range 0 5) >>= fun behs ->
    int_range 0 40 >>= fun nmsgs ->
    int_range 0 2 >>= fun disc ->
    oneof [ return None; map (fun l -> Some l) (int_range 1 8) ]
    >>= fun limit -> return { behs; nmsgs; disc; limit })

let arb_case = QCheck.make ~print:pp_case gen_case

let discipline_of c =
  match c.disc with
  | 0 -> Engine.Conventional
  | 1 -> Engine.Ldlp Batch.All
  | _ -> Engine.Ldlp Batch.paper_default

(* Handlers are deterministic functions of the payload (the injection
   index), as in the oracle, so conventional and blocked runs describe
   the same work. *)
let rx_layer i beh =
  let name = Printf.sprintf "l%d" i in
  let handle m =
    match beh with
    | 1 ->
        if m.Msg.payload mod 5 = 0 then [ Layer.Deliver_to ("nowhere", m) ]
        else [ Layer.Deliver_up m ]
    | 2 ->
        if m.Msg.payload mod 2 = 0 then [ Layer.Consume ]
        else [ Layer.Deliver_up m ]
    | 3 ->
        if m.Msg.payload mod 3 = 0 then
          [ Layer.Send_down (Msg.make ~size:40 (-m.Msg.payload - 1));
            Layer.Deliver_up m ]
        else [ Layer.Deliver_up m ]
    | 4 ->
        if m.Msg.payload mod 3 = 0 then [ Layer.Consume ]
        else [ Layer.Deliver_up m ]
    | _ -> [ Layer.Deliver_up m ]
  in
  let tx m =
    match beh with
    | 2 ->
        if m.Msg.payload mod 2 = 0 then [ Layer.Consume ]
        else [ Layer.Send_down m ]
    | 3 ->
        if m.Msg.payload mod 3 = 0 then
          [ Layer.Deliver_up (Msg.make ~size:40 (-m.Msg.payload - 1));
            Layer.Send_down m ]
        else [ Layer.Send_down m ]
    | 4 ->
        if m.Msg.payload mod 3 = 0 then [ Layer.Consume ]
        else [ Layer.Send_down m ]
    | _ -> [ Layer.Send_down m ]
  in
  Layer.v ~name ~tx handle

let case_msgs c =
  List.init c.nmsgs (fun i -> Msg.make ~flow:(i mod 3) ~size:(32 * (i mod 4)) i)

(* At idle each chain accounts for every offered message: accepted or
   shed, every acceptance batched once at the entry and handled there,
   and each ending in one terminal action ([Send_down] replies on the
   receive side and [Deliver_up] loopbacks on the transmit side are
   fresh messages). *)
let prop_chain_conservation c =
  let layers = List.mapi rx_layer c.behs in
  let drive eng ~entry =
    List.iteri
      (fun i m ->
        ignore (Engine.try_inject eng ~node:entry m);
        if i mod 5 = 4 then ignore (Engine.step eng))
      (case_msgs c);
    Engine.run eng;
    let s = Engine.stats eng in
    ( s,
      Engine.pending eng = 0
      && s.Engine.injected + s.Engine.shed = c.nmsgs
      && s.Engine.total_batched = s.Engine.injected
      && (s.Engine.batches = 0 || s.Engine.max_batch >= 1)
      && snd (List.nth s.Engine.per_node entry) = s.Engine.injected )
  in
  let discipline = discipline_of c in
  let rx, rx_ok =
    drive
      (Engine.rx_chain ~discipline ~layers ?intake_limit:c.limit ())
      ~entry:0
  in
  let tx, tx_ok =
    drive
      (Engine.tx_chain ~discipline ~layers ?intake_limit:c.limit ())
      ~entry:(List.length layers - 1)
  in
  rx_ok && tx_ok
  && rx.Engine.injected
     = rx.Engine.to_up + rx.Engine.consumed + rx.Engine.misrouted
  && tx.Engine.injected = tx.Engine.to_down + tx.Engine.consumed
  && tx.Engine.misrouted = 0

(* ---------- transmit-side intake shedding ---------- *)

(* Mirror of test_core's [test_intake_shedding] for the transmit chain
   (submission-queue high-watermark). *)
let test_tx_intake_shedding () =
  let shed_ids = ref [] in
  let wired = ref [] in
  let tx =
    Engine.tx_chain ~discipline:Engine.Conventional
      ~layers:[ Layer.passthrough "l0"; Layer.passthrough "l1" ]
      ~wire:(fun m -> wired := m.Msg.id :: !wired)
      ~intake_limit:3
      ~on_shed:(fun m -> shed_ids := m.Msg.id :: !shed_ids)
      ()
  in
  let results =
    List.map
      (fun m -> (m.Msg.id, Engine.try_inject tx ~node:1 m))
      (List.init 5 (fun i -> Msg.make ~size:10 i))
  in
  checki "watermark admits 3" 3 (List.length (List.filter snd results));
  checki "2 passed to on_shed" 2 (List.length !shed_ids);
  Alcotest.(check (list bool))
    "first-come first-served" [ true; true; true; false; false ]
    (List.map snd results);
  let st = Engine.stats tx in
  checki "stats.shed" 2 st.Engine.shed;
  (* Shed submissions never enter the chain: injected counts only the
     accepted three. *)
  checki "shed not counted submitted" 3 st.Engine.injected;
  Engine.run tx;
  checki "accepted messages all transmitted" 3 (List.length !wired);
  checki "nothing shed mid-run" 2 (Engine.stats tx).Engine.shed;
  (* Draining the submission queue reopens the intake. *)
  check "room after run" true (Engine.try_inject tx ~node:1 (Msg.make ~size:10 9));
  (* Without a limit try_inject never refuses. *)
  let open_tx =
    Engine.tx_chain ~discipline:(Engine.Ldlp Batch.All)
      ~layers:[ Layer.passthrough "l0" ]
      ()
  in
  check "unlimited intake" true
    (List.for_all Fun.id
       (List.init 100 (fun i -> Engine.try_inject open_tx ~node:0 (Msg.make i))))

(* ---------- full-duplex topology ---------- *)

let test_duplex_layer_names () =
  Alcotest.(check (list string))
    "rx names then /tx names, bottom-first"
    [ "a"; "b"; "a/tx"; "b/tx" ]
    (Engine.duplex_layer_names [ "a"; "b" ])

let test_duplex_entries () =
  let layers =
    [ Layer.passthrough "a"; Layer.passthrough "b"; Layer.passthrough "c" ]
  in
  let eng = Engine.duplex ~discipline:Engine.Conventional ~layers () in
  checki "2n nodes" 6 (Engine.node_count eng);
  checki "rx entry is node 0" 0 (Engine.duplex_rx_entry eng);
  checki "tx entry is node 2n-1" 5 (Engine.duplex_tx_entry eng);
  (* Under [Fixed 1] an entry node yields after one message while any
     other node runs to completion: one quantum at each entry leaves one
     of two messages queued there. *)
  let eng = Engine.duplex ~discipline:(Engine.Ldlp (Batch.Fixed 1)) ~layers () in
  List.iter
    (fun node ->
      Engine.inject eng ~node (Msg.make 0);
      Engine.inject eng ~node (Msg.make 1);
      ignore (Engine.step eng);
      checki "entry quantum takes one" 1 (Engine.backlog eng ~node);
      Engine.run eng)
    [ Engine.duplex_tx_entry eng; Engine.duplex_rx_entry eng ];
  Alcotest.(check (list string))
    "node names follow duplex_layer_names"
    (Engine.duplex_layer_names [ "a"; "b"; "c" ])
    (List.init 6 (Engine.node_name eng))

let test_duplex_conservation () =
  let up = ref [] in
  let wire = ref [] in
  let eng =
    Engine.duplex ~discipline:(Engine.Ldlp Batch.All)
      ~layers:[ Layer.passthrough "l0"; Layer.passthrough "l1" ]
      ~up:(fun m -> up := m.Msg.payload :: !up)
      ~wire:(fun m -> wire := m.Msg.payload :: !wire)
      ()
  in
  List.iter
    (fun i -> Engine.inject eng ~node:(Engine.duplex_rx_entry eng) (Msg.make ~size:64 i))
    [ 0; 1; 2; 3 ];
  List.iter
    (fun i -> Engine.inject eng ~node:(Engine.duplex_tx_entry eng) (Msg.make ~size:64 i))
    [ 10; 11; 12 ];
  Engine.run eng;
  checki "all rx delivered" 4 (List.length !up);
  Alcotest.(check (list int)) "wire FIFO" [ 10; 11; 12 ] (List.rev !wire);
  let st = Engine.stats eng in
  checki "injected both entries" 7 st.Engine.injected;
  checki "to_up" 4 st.Engine.to_up;
  checki "to_down" 3 st.Engine.to_down;
  checki "idle" 0 (Engine.pending eng);
  checki "conservation" st.Engine.injected
    (st.Engine.to_up + st.Engine.to_down + st.Engine.consumed
   + st.Engine.misrouted)

(* The duplex-specific behaviour: replies generated while draining a
   receive batch cross into the transmit side and reach the wire in the
   same scheduling pass, before newly arrived receive work is touched. *)
let test_duplex_same_pass_acks () =
  let wire = ref [] in
  let top =
    Layer.v ~name:"l1" (fun m ->
        [ Layer.Send_down (Msg.make ~size:40 (1000 + m.Msg.payload));
          Layer.Deliver_up m ])
  in
  let eng =
    Engine.duplex ~discipline:(Engine.Ldlp Batch.All)
      ~layers:[ Layer.passthrough "l0"; top ]
      ~wire:(fun m -> wire := m.Msg.payload :: !wire)
      ()
  in
  let rx = Engine.duplex_rx_entry eng in
  Engine.inject eng ~node:rx (Msg.make ~size:64 0);
  Engine.inject eng ~node:rx (Msg.make ~size:64 1);
  (* Quantum 1: the rx entry batch climbs to the top rx queue. *)
  check "entry quantum" true (Engine.step eng);
  (* New frames arrive; they must wait behind the in-flight batch. *)
  Engine.inject eng ~node:rx (Msg.make ~size:64 2);
  Engine.inject eng ~node:rx (Msg.make ~size:64 3);
  (* Quantum 2: top rx layer replies — ACKs enter the top tx queue. *)
  check "top rx quantum" true (Engine.step eng);
  (* Quanta 3-4: the tx side outranks the waiting rx entry backlog, so
     both ACKs descend to the wire before frames 2 and 3 are touched. *)
  check "tx entry quantum" true (Engine.step eng);
  check "tx bottom quantum" true (Engine.step eng);
  Alcotest.(check (list int)) "ACKs on the wire, in order" [ 1000; 1001 ]
    (List.rev !wire);
  checki "new arrivals still queued" 2 (Engine.backlog eng ~node:rx);
  checki "two tx-side switches so far" 2 (Engine.tx_runs eng);
  Engine.run eng;
  Alcotest.(check (list int)) "second batch's ACKs follow"
    [ 1000; 1001; 1002; 1003 ] (List.rev !wire);
  let st = Engine.stats eng in
  checki "every frame delivered" 4 st.Engine.to_up;
  checki "every ACK transmitted" 4 st.Engine.to_down

let test_duplex_shed_both_entries () =
  let shed = ref 0 in
  let eng =
    Engine.duplex ~discipline:Engine.Conventional
      ~layers:[ Layer.passthrough "l0" ]
      ~intake_limit:2
      ~on_shed:(fun _ -> incr shed)
      ()
  in
  let rx = Engine.duplex_rx_entry eng in
  let tx = Engine.duplex_tx_entry eng in
  check "rx 1" true (Engine.try_inject eng ~node:rx (Msg.make 0));
  check "rx 2" true (Engine.try_inject eng ~node:rx (Msg.make 1));
  check "rx over watermark" false (Engine.try_inject eng ~node:rx (Msg.make 2));
  check "tx 1" true (Engine.try_inject eng ~node:tx (Msg.make 10));
  check "tx 2" true (Engine.try_inject eng ~node:tx (Msg.make 11));
  check "tx over watermark" false (Engine.try_inject eng ~node:tx (Msg.make 12));
  checki "both refusals shed" 2 !shed;
  checki "stats.shed" 2 (Engine.stats eng).Engine.shed;
  checki "accepted only" 4 (Engine.stats eng).Engine.injected;
  Engine.run eng;
  check "intake reopens" true (Engine.try_inject eng ~node:rx (Msg.make 3))

let test_duplex_metrics_rows () =
  let eng =
    Engine.duplex ~discipline:Engine.Conventional
      ~layers:[ Layer.passthrough "a"; Layer.passthrough "b" ]
      ()
  in
  check "sheet must have 2n rows" true
    (try
       Engine.attach_metrics eng
         (Ldlp_obs.Metrics.create ~label:"bad" ~layer_names:[ "a"; "b" ]);
       false
     with Invalid_argument _ -> true);
  Engine.attach_metrics eng
    (Ldlp_obs.Metrics.create ~label:"ok"
       ~layer_names:(Engine.duplex_layer_names [ "a"; "b" ]))

(* ---------- batch policies are checked when the engine is built ---------- *)

let test_bad_policy_rejected () =
  let rejects what k build =
    check
      (Printf.sprintf "%s rejects Fixed %d" what k)
      true
      (try
         build (Engine.Ldlp (Batch.Fixed k));
         false
       with Invalid_argument _ -> true)
  in
  let layers = [ Layer.passthrough "a"; Layer.passthrough "b" ] in
  List.iter
    (fun k ->
      rejects "Engine.create" k (fun discipline ->
          ignore (Engine.create ~discipline ()));
      rejects "Engine.rx_chain" k (fun discipline ->
          ignore (Engine.rx_chain ~discipline ~layers ()));
      rejects "Engine.tx_chain" k (fun discipline ->
          ignore (Engine.tx_chain ~discipline ~layers ()));
      rejects "Engine.duplex" k (fun discipline ->
          ignore (Engine.duplex ~discipline ~layers ())))
    [ 0; -1 ];
  let s = Engine.rx_chain ~discipline:(Engine.Ldlp (Batch.Fixed 1)) ~layers () in
  Engine.inject s ~node:0 (Msg.make 0);
  Engine.run s;
  checki "Fixed 1 is accepted and runs" 1 (Engine.stats s).Engine.to_up

(* ---------- the node ring, through inject / step / backlog ---------- *)

(* One entry node under [Ldlp (Fixed 1)]: each [step] pops exactly one
   message, so an inject/step trace drives the node's ring like a queue
   and the handler sees what it pops. *)
let ring_engine () =
  let popped = ref [] in
  let sink =
    Layer.v ~name:"sink" (fun m ->
        popped := m.Msg.payload :: !popped;
        Layer.consume_only)
  in
  let e = Engine.create ~discipline:(Engine.Ldlp (Batch.Fixed 1)) () in
  ignore
    (Engine.add_node e ~layer:sink ~use_tx:false ~priority:0 ~entry:true
       ~up_route:Engine.To_up
       ~to_route:(fun _ -> Engine.Misroute)
       ~down_route:Engine.To_down);
  (e, popped)

let ring_pop e popped =
  popped := [];
  if not (Engine.step e) then failwith "step found nothing";
  match !popped with [ x ] -> x | _ -> failwith "step handled <> 1 message"

let ring_drain e popped =
  popped := [];
  Engine.run e;
  List.rev !popped

(* A trace step: [Push x] or [Pop].  Pops on an empty queue are skipped
   rather than generated away, so traces drain aggressively and the head
   index wraps many times within one trace. *)
type ring_step = Push of int | Pop

let arb_ring_trace =
  let pp = function Push x -> Printf.sprintf "Push %d" x | Pop -> "Pop" in
  QCheck.make
    ~print:(fun t -> String.concat "; " (List.map pp t))
    QCheck.Gen.(
      list_size (int_range 0 600)
        (frequency
           [ (3, map (fun x -> Push x) (int_bound 10_000)); (2, return Pop) ]))

(* After every step the ring and [Stdlib.Queue] agree on what was popped
   and on the length; at the end the ring drains in the queue's order. *)
let prop_ring_differential trace =
  let e, popped = ring_engine () and m = Queue.create () in
  List.for_all
    (fun step ->
      (match step with
      | Push x ->
        Engine.inject e ~node:0 (Msg.make x);
        Queue.add x m
      | Pop ->
        if not (Queue.is_empty m) then
          if ring_pop e popped <> Queue.pop m then failwith "pop mismatch");
      Engine.backlog e ~node:0 = Queue.length m
      && Engine.pending e = Queue.length m)
    trace
  && ring_drain e popped = List.of_seq (Queue.to_seq m)

(* Force the doubling path several times over with the head moved off
   zero first, so growth happens while the ring is wrapped — the
   copy-out case a naive resize gets wrong. *)
let prop_ring_growth_wrapped (drain, total) =
  let e, popped = ring_engine () in
  for i = 0 to drain - 1 do
    Engine.inject e ~node:0 (Msg.make i)
  done;
  for _ = 1 to drain do
    ignore (ring_pop e popped)
  done;
  for i = 0 to total - 1 do
    Engine.inject e ~node:0 (Msg.make i)
  done;
  Engine.backlog e ~node:0 = total
  && ring_drain e popped = List.init total Fun.id

let test_ring_exact_capacity () =
  (* 64 is the ring's first capacity: fill it exactly, drain half, refill
     — the tail wraps to index 0 without a resize. *)
  let cap = 64 in
  let e, popped = ring_engine () in
  for i = 0 to cap - 1 do
    Engine.inject e ~node:0 (Msg.make i)
  done;
  for i = 0 to (cap / 2) - 1 do
    checki "first half FIFO" i (ring_pop e popped)
  done;
  for i = 0 to (cap / 2) - 1 do
    Engine.inject e ~node:0 (Msg.make (cap + i))
  done;
  checki "length after wrap" cap (Engine.backlog e ~node:0);
  Alcotest.(check (list int))
    "second half FIFO"
    (List.init cap (fun i -> (cap / 2) + i))
    (ring_drain e popped);
  checki "empty at end" 0 (Engine.backlog e ~node:0)

let test_ring_drained_idle () =
  let e, popped = ring_engine () in
  check "fresh engine is idle" false (Engine.step e);
  Engine.inject e ~node:0 (Msg.make 7);
  checki "popped" 7 (ring_pop e popped);
  check "drained ring is idle" false (Engine.step e);
  checki "backlog 0" 0 (Engine.backlog e ~node:0);
  Engine.inject e ~node:0 (Msg.make 8);
  checki "reused after drain" 8 (ring_pop e popped);
  check "idle again" false (Engine.step e);
  check "bad node index raises" true
    (try
       ignore (Engine.backlog e ~node:1);
       false
     with Invalid_argument _ -> true)

(* The entry quantum's [Dcache_fit] bound reads message sizes in place
   from the (wrapped) ring; it must agree with [Batch.limit] over the
   same sizes in queue order. *)
let prop_dcache_in_place (skip, sizes) =
  let policy = Batch.Dcache_fit { cache_bytes = 1024; per_msg_overhead = 32 } in
  let handled = ref 0 in
  let e = Engine.create ~discipline:(Engine.Ldlp policy) () in
  ignore
    (Engine.add_node e
       ~layer:
         (Layer.v ~name:"sink" (fun _ ->
              incr handled;
              Layer.consume_only))
       ~use_tx:false ~priority:0 ~entry:true ~up_route:Engine.To_up
       ~to_route:(fun _ -> Engine.Misroute)
       ~down_route:Engine.To_down);
  (* Move the head: [skip] tiny messages, drained a quantum at a time. *)
  for i = 1 to skip do
    Engine.inject e ~node:0 (Msg.make i)
  done;
  Engine.run e;
  List.iter (fun size -> Engine.inject e ~node:0 (Msg.make ~size 0)) sizes;
  handled := 0;
  ignore (Engine.step e);
  !handled = Batch.limit policy ~sizes

(* ---------- the precomputed schedule vs a scan-every-node rule ---------- *)

(* Payload: a message's id and how many layers it has crossed; past 5 a
   message is consumed, so routing cycles terminate.  Handlers are
   deterministic functions of (node, payload), so the engine and the
   reference below see the same actions. *)
type sp = { sid : int; mutable hops : int }

let mix a b = ((a * 0x9E3779B1) lxor (b * 0x85EBCA77)) land 0x3FFF_FFFF

let sched_actions ~named i (m : sp Msg.t) =
  let p = m.Msg.payload in
  let next sid =
    Msg.make ~size:(mix sid 3 mod 700) { sid; hops = p.hops + 1 }
  in
  if p.hops >= 5 then [ Layer.Consume ]
  else
    let h = mix (mix i p.sid) p.hops in
    match h mod 7 with
    | 0 -> [ Layer.Consume ]
    | 1 | 2 -> [ Layer.Deliver_up (next p.sid) ]
    | 3 -> [ Layer.Send_down (next p.sid) ]
    | 4 -> [ Layer.Deliver_to (Printf.sprintf "n%d" named, next p.sid) ]
    | 5 ->
      [
        Layer.Deliver_up (next ((2 * p.sid) + 1));
        Layer.Send_down (next (2 * p.sid));
      ]
    | _ ->
      (* [Up]/[Down] forward the message itself: count the hop in place. *)
      p.hops <- p.hops + 1;
      if h land 8 = 0 then [ Layer.Up ] else [ Layer.Down ]

type node_spec = {
  prio : int;
  entry : bool;
  up_to : int;
  down_to : int;
  named : int;  (* the node its [Deliver_to] names *)
}

(* Route codes: [-1] up sink, [-2] down sink, [-3] misroute, [j >= 0]
   node [j] (possibly one added later, or never). *)
let target_of r =
  if r >= 0 then Engine.To_node r
  else if r = -1 then Engine.To_up
  else if r = -2 then Engine.To_down
  else Engine.Misroute

(* [Deliver_to "nK"] goes to node K. *)
let to_route_of name =
  Engine.To_node (int_of_string (String.sub name 1 (String.length name - 1)))

type sop = Add | Inject of int * int | Step

type sched_case = {
  specs : node_spec list;
  ops : sop list;
  sdisc : int;  (* 0 Conventional, 1 All, 2 Fixed 3, 3 Dcache_fit *)
}

let sched_discipline c =
  match c.sdisc with
  | 0 -> Engine.Conventional
  | 1 -> Engine.Ldlp Batch.All
  | 2 -> Engine.Ldlp (Batch.Fixed 3)
  | _ ->
    Engine.Ldlp
      (Batch.Dcache_fit { cache_bytes = 1500; per_msg_overhead = 32 })

let pp_sched_case c =
  let r = function
    | -1 -> "up" | -2 -> "down" | -3 -> "mis" | j -> string_of_int j
  in
  Printf.sprintf "disc=%d nodes=[%s] ops=[%s]" c.sdisc
    (String.concat "; "
       (List.map
          (fun s ->
            Printf.sprintf "p%d%s u%s d%s n%d" s.prio
              (if s.entry then "e" else "")
              (r s.up_to) (r s.down_to) s.named)
          c.specs))
    (String.concat " "
       (List.map
          (function
            | Add -> "A"
            | Inject (k, id) -> Printf.sprintf "I%d:%d" k id
            | Step -> "S")
          c.ops))

let gen_sched_case =
  QCheck.Gen.(
    int_range 2 12 >>= fun n ->
    bool >>= fun tied ->
    (if tied then list_repeat n (int_range 0 2)
     else shuffle_l (List.init n Fun.id))
    >>= fun prios ->
    (* One case in four may name nodes that are never added. *)
    frequency [ (1, return (n + 2)); (3, return n) ] >>= fun reach ->
    let node = int_range 0 (reach - 1) in
    let route = frequency [ (5, node); (1, int_range (-3) (-1)) ] in
    flatten_l
      (List.map
         (fun prio ->
           map4
             (fun entry up_to down_to named ->
               { prio; entry; up_to; down_to; named })
             (frequency [ (1, return true); (2, return false) ])
             route route node)
         prios)
    >>= fun specs ->
    (* Up to three nodes are added between steps, later in the trace. *)
    int_range (Int.max 1 (n - 3)) n >>= fun first ->
    list_size (int_range 0 60)
      (frequency
         [
           (2, return Add);
           (5, map2 (fun k sid -> Inject (k, sid)) (int_bound 11)
                 (int_bound 999));
           (3, return Step);
         ])
    >>= fun rest ->
    int_range 0 3 >>= fun sdisc ->
    return { specs; ops = List.init first (fun _ -> Add) @ rest; sdisc })

let arb_sched_case = QCheck.make ~print:pp_sched_case gen_sched_case

(* What a run observed: the handled (node, id) sequence and whether a
   route to a missing node raised (the run stops there). *)
type observed = { seq : (int * int) list; raised : bool }

let run_engine c =
  let specs = Array.of_list c.specs in
  let log = ref [] in
  let e =
    Engine.create ~discipline:(sched_discipline c)
      ~on_handled:(fun i _ m -> log := (i, m.Msg.payload.sid) :: !log)
      ()
  in
  let add () =
    let i = Engine.node_count e in
    if i < Array.length specs then begin
      let s = specs.(i) in
      ignore
        (Engine.add_node e
           ~layer:
             (Layer.v ~name:(Printf.sprintf "n%d" i)
                (sched_actions ~named:s.named i))
           ~use_tx:false ~priority:s.prio ~entry:s.entry
           ~up_route:(target_of s.up_to) ~to_route:to_route_of
           ~down_route:(target_of s.down_to))
    end
  in
  let apply = function
    | Add -> add ()
    | Inject (k, sid) ->
      let n = Engine.node_count e in
      Engine.inject e ~node:(k mod n)
        (Msg.make ~size:(mix sid 5 mod 900) { sid; hops = 0 })
    | Step -> ignore (Engine.step e)
  in
  let raised =
    try
      List.iter apply c.ops;
      Engine.run e;
      false
    with Invalid_argument _ -> true
  in
  { seq = List.rev !log; raised }

(* The reference: today's rule written out plainly — every step scans
   every node for the highest priority, ties to the earliest index;
   routes are looked up by index each time they are taken. *)
type ref_node = {
  r_prio : int;
  r_entry : bool;
  r_up : int;
  r_down : int;
  r_q : sp Msg.t Queue.t;
}

let run_reference c =
  let specs = Array.of_list c.specs in
  let nodes = ref [||] in
  let log = ref [] in
  let count () = Array.length !nodes in
  let get j =
    if j < 0 || j >= count () then invalid_arg "reference: no such node";
    !nodes.(j)
  in
  let recurse = c.sdisc = 0 in
  let rec handle i m =
    log := (i, m.Msg.payload.sid) :: !log;
    let n = !nodes.(i) in
    List.iter
      (fun a ->
        match a with
        | Layer.Consume -> ()
        | Layer.Up -> route n.r_up m
        | Layer.Down -> route n.r_down m
        | Layer.Deliver_up m' -> route n.r_up m'
        | Layer.Send_down m' -> route n.r_down m'
        | Layer.Deliver_to (name, m') -> (
          match to_route_of name with
          | Engine.To_node j -> route j m'
          | _ -> assert false))
      (sched_actions ~named:specs.(i).named i m)
  and route r m =
    if r >= 0 then begin
      let n = get r in
      if recurse then handle r m else Queue.add m n.r_q
    end
  in
  let ready () =
    let best = ref (-1) in
    for i = count () - 1 downto 0 do
      let n = !nodes.(i) in
      if
        (not (Queue.is_empty n.r_q))
        && (!best < 0 || n.r_prio >= !nodes.(!best).r_prio)
      then best := i
    done;
    !best
  in
  let step () =
    match ready () with
    | -1 -> false
    | i ->
      let n = !nodes.(i) in
      (match sched_discipline c with
      | Engine.Conventional -> handle i (Queue.pop n.r_q)
      | Engine.Ldlp policy ->
        if n.r_entry then begin
          let sizes =
            List.of_seq (Seq.map (fun m -> m.Msg.size) (Queue.to_seq n.r_q))
          in
          for _ = 1 to Batch.limit policy ~sizes do
            handle i (Queue.pop n.r_q)
          done
        end
        else
          while not (Queue.is_empty n.r_q) do
            handle i (Queue.pop n.r_q)
          done);
      true
  in
  let apply = function
    | Add ->
      let i = count () in
      if i < Array.length specs then begin
        let s = specs.(i) in
        nodes :=
          Array.append !nodes
            [| { r_prio = s.prio; r_entry = s.entry; r_up = s.up_to;
                 r_down = s.down_to; r_q = Queue.create () } |]
      end
    | Inject (k, sid) ->
      Queue.add
        (Msg.make ~size:(mix sid 5 mod 900) { sid; hops = 0 })
        !nodes.(k mod count ()).r_q
    | Step -> ignore (step ())
  in
  let raised =
    try
      List.iter apply c.ops;
      while step () do
        ()
      done;
      false
    with Invalid_argument _ -> true
  in
  { seq = List.rev !log; raised }

let prop_schedule_matches_reference c = run_engine c = run_reference c

let test_unadded_route_raises () =
  List.iter
    (fun discipline ->
      let e = Engine.create ~discipline () in
      ignore
        (Engine.add_node e ~layer:(Layer.passthrough "a") ~use_tx:false
           ~priority:0 ~entry:true ~up_route:(Engine.To_node 1)
           ~to_route:(fun _ -> Engine.Misroute)
           ~down_route:Engine.To_down);
      Engine.inject e ~node:0 (Msg.make 0);
      check "route to a never-added node raises" true
        (try
           Engine.run e;
           false
         with Invalid_argument _ -> true);
      (* Adding the node resolves the route for the messages after it. *)
      ignore
        (Engine.add_node e ~layer:(Layer.passthrough "b") ~use_tx:false
           ~priority:1 ~entry:false ~up_route:Engine.To_up
           ~to_route:(fun _ -> Engine.Misroute)
           ~down_route:Engine.To_down);
      Engine.inject e ~node:0 (Msg.make 1);
      Engine.run e;
      checki "delivered once node 1 exists" 1 (Engine.stats e).Engine.to_up)
    [ Engine.Conventional; Engine.Ldlp Batch.paper_default ]

(* ---------- protocol graphs, node by node ---------- *)

(* Section 3.2's general case: a layer may have several layers directly
   above it (IP demultiplexing to TCP, UDP and ICMP).  [layers] lists
   each layer with the names of its parents, top-down, so every parent
   comes first.  Depth is the distance from the top and priority its
   negation (the layer furthest from the entry points wins, ties to
   registration order); a layer nobody lists as a parent is an entry
   point.  [Deliver_up] goes to the only parent, or the up sink at the
   top, and is misrouted under fan-out; [Deliver_to] may name any parent.
   Returns the engine and a name-to-node lookup. *)
let graph ~discipline ?on_consume ?intake_limit ?on_shed layers =
  let e = Engine.create ~discipline ?on_consume ?intake_limit ?on_shed () in
  let index = List.mapi (fun i (l, _) -> (l.Layer.name, i)) layers in
  let node name = List.assoc name index in
  let depths = ref [] in
  List.iter
    (fun (layer, above) ->
      let depth =
        List.fold_left (fun d p -> Int.min d (1 + List.assoc p !depths))
          (if above = [] then 0 else max_int) above
      in
      depths := (layer.Layer.name, depth) :: !depths;
      let routes = List.map (fun p -> (p, Engine.To_node (node p))) above in
      let entry =
        not (List.exists (fun (_, a) -> List.mem layer.Layer.name a) layers)
      in
      ignore
        (Engine.add_node e ~layer ~use_tx:false ~priority:(-depth) ~entry
           ~up_route:
             (match routes with
             | [] -> Engine.To_up
             | [ (_, r) ] -> r
             | _ :: _ :: _ -> Engine.Misroute)
           ~to_route:(fun name ->
             match List.assoc name routes with
             | r -> r
             | exception Not_found -> Engine.Misroute)
           ~down_route:Engine.To_down))
    layers;
  (e, node)

(* A classic internet graph:

        sockets
        /     \
      tcp     udp     icmp
        \      |      /
             ip
             |
           ether

   Payloads are (proto, id) pairs; the ip layer demultiplexes on proto. *)
let build ~discipline =
  let log = ref [] in
  let seen name msg = log := (name, snd msg.Msg.payload) :: !log in
  let consume name =
    Layer.v ~name (fun m ->
        seen name m;
        [ Layer.Consume ])
  in
  let pass name targets =
    Layer.v ~name (fun m ->
        seen name m;
        match targets with
        | `Up -> [ Layer.Deliver_up m ]
        | `Demux f -> [ Layer.Deliver_to (f m, m) ])
  in
  let g, node =
    graph ~discipline
      [
        (consume "sockets", []);
        (pass "tcp" `Up, [ "sockets" ]);
        (pass "udp" `Up, [ "sockets" ]);
        (consume "icmp", []);
        (pass "ip" (`Demux (fun m -> fst m.Msg.payload)), [ "tcp"; "udp"; "icmp" ]);
        (pass "ether" `Up, [ "ip" ]);
      ]
  in
  (g, node "ether", log)

let msg proto id = Msg.make ~size:100 (proto, id)

let test_demux_routes () =
  let g, ether, log = build ~discipline:Engine.Conventional in
  Engine.inject g ~node:ether (msg "tcp" 1);
  Engine.inject g ~node:ether (msg "udp" 2);
  Engine.inject g ~node:ether (msg "icmp" 3);
  Engine.run g;
  let path id =
    List.rev (List.filter_map (fun (l, i) -> if i = id then Some l else None) !log)
  in
  Alcotest.(check (list string)) "tcp path" [ "ether"; "ip"; "tcp"; "sockets" ] (path 1);
  Alcotest.(check (list string)) "udp path" [ "ether"; "ip"; "udp"; "sockets" ] (path 2);
  Alcotest.(check (list string)) "icmp path" [ "ether"; "ip"; "icmp" ] (path 3);
  let s = Engine.stats g in
  checki "all consumed" 3 s.Engine.consumed;
  checki "no misroutes" 0 s.Engine.misrouted

let test_ldlp_blocked_over_graph () =
  let g, ether, log = build ~discipline:(Engine.Ldlp Batch.All) in
  (* Two messages per branch, injected interleaved. *)
  List.iter
    (Engine.inject g ~node:ether)
    [ msg "tcp" 1; msg "udp" 2; msg "tcp" 3; msg "udp" 4 ];
  Engine.run g;
  (* Layer-major order: ether handles all four, then ip all four, then the
     branch layers each handle their pair. *)
  let order = List.rev_map fst !log in
  let prefix = [ "ether"; "ether"; "ether"; "ether"; "ip"; "ip"; "ip"; "ip" ] in
  let rec take n = function
    | [] -> []
    | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl
  in
  Alcotest.(check (list string)) "blocked prefix" prefix (take 8 order);
  let s = Engine.stats g in
  checki "4 consumed" 4 s.Engine.consumed

let test_priority_branch_closest_to_top_first () =
  (* Once ether's batch is enqueued at ip and processed, tcp and udp
     queues (depth 1) must drain before ether (depth 2) takes another
     batch. *)
  let g, ether, log = build ~discipline:(Engine.Ldlp (Batch.Fixed 2)) in
  List.iter
    (Engine.inject g ~node:ether)
    [ msg "tcp" 1; msg "udp" 2; msg "tcp" 3; msg "udp" 4 ];
  Engine.run g;
  let order = List.rev_map fst !log in
  (* First quantum: ether x2; then ip x2, branches, sockets — and only
     then ether again. *)
  let first_8 =
    let rec take n = function
      | [] -> []
      | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl
    in
    take 8 order
  in
  check "second ether batch comes after upper layers drained" true
    (match first_8 with
    | "ether" :: "ether" :: rest ->
      (* No further "ether" until everything enqueued upward is done. *)
      let upper, _later = List.partition (fun l -> l <> "ether") rest in
      List.length upper >= 5
    | _ -> false)

let test_ambiguous_deliver_up_misroutes () =
  (* "fan" has two parents and wrongly uses Deliver_up. *)
  let g, node =
    graph ~discipline:Engine.Conventional
      [
        (Layer.passthrough "a", []);
        (Layer.passthrough "b", []);
        (Layer.passthrough "fan", [ "a"; "b" ]);
      ]
  in
  Engine.inject g ~node:(node "fan") (Msg.make ());
  Engine.run g;
  let s = Engine.stats g in
  checki "misrouted" 1 s.Engine.misrouted;
  checki "not delivered" 0 s.Engine.to_up

let test_deliver_to_non_edge_misroutes () =
  let g, node =
    graph ~discipline:Engine.Conventional
      [
        (Layer.passthrough "top", []);
        ( Layer.v ~name:"bottom" (fun m -> [ Layer.Deliver_to ("nowhere", m) ]),
          [ "top" ] );
      ]
  in
  Engine.inject g ~node:(node "bottom") (Msg.make ());
  Engine.run g;
  checki "misrouted" 1 (Engine.stats g).Engine.misrouted

let prop_graph_conservation =
  QCheck.Test.make ~name:"graph delivers every message exactly once" ~count:100
    QCheck.(pair (list_of_size Gen.(0 -- 40) (int_bound 2)) bool)
    (fun (protos, ldlp) ->
      let discipline =
        if ldlp then Engine.Ldlp Batch.paper_default else Engine.Conventional
      in
      let g, ether, _ = build ~discipline in
      let expected_consumed = List.length protos in
      List.iteri
        (fun i p ->
          let proto = [| "tcp"; "udp"; "icmp" |].(p) in
          Engine.inject g ~node:ether (msg proto i))
        protos;
      Engine.run g;
      let s = Engine.stats g in
      s.Engine.consumed = expected_consumed
      && s.Engine.misrouted = 0
      && Engine.pending g = 0)

let test_graph_intake_shedding () =
  let shed_ids = ref [] in
  let g, node =
    graph ~discipline:Engine.Conventional ~intake_limit:2
      ~on_shed:(fun m -> shed_ids := snd m.Msg.payload :: !shed_ids)
      [
        (Layer.v ~name:"top" (fun _ -> [ Layer.Consume ]), []);
        (Layer.v ~name:"ether" (fun m -> [ Layer.Deliver_up m ]), [ "top" ]);
      ]
  in
  let ether = node "ether" in
  let results =
    List.init 5 (fun i -> Engine.try_inject g ~node:ether (msg "tcp" i))
  in
  Alcotest.(check (list bool))
    "watermark admits the first 2" [ true; true; false; false; false ] results;
  Alcotest.(check (list int)) "refused ids to on_shed" [ 2; 3; 4 ]
    (List.rev !shed_ids);
  let st = Engine.stats g in
  checki "stats.shed" 3 st.Engine.shed;
  checki "shed not counted injected" 2 st.Engine.injected;
  Engine.run g;
  let st = Engine.stats g in
  checki "accepted all consumed" 2 st.Engine.consumed;
  check "drained queue reopens intake" true
    (Engine.try_inject g ~node:ether (msg "tcp" 9))

(* ---------- steady-state quantum allocates nothing ---------- *)

(* The whole point of the pooled hot path: once the pool, the ring
   buffers and the free list are warm, an inject+run quantum of
   constant-action layers must not touch the minor heap at all (metrics
   and invariants off).  We run many quanta between two [Gc.minor_words]
   probes and allow less than one word per quantum, which only a
   genuinely allocation-free path can meet — the slack absorbs the boxed
   float the probe itself allocates. *)
let quanta = 64 and batch = 16

(* Warm [quantum] (the pool, the free list and the node rings), then
   fail unless [quanta] more calls allocate under one word each. *)
let assert_alloc_free what quantum =
  for _ = 1 to 4 do
    quantum ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to quanta do
    quantum ()
  done;
  let delta = Gc.minor_words () -. before in
  if delta >= float_of_int quanta then
    Alcotest.failf
      "%s: steady-state quantum allocates %.0f minor words over %d quanta"
      what delta quanta

let with_invariants_off f =
  let was = Invariant.enabled () in
  Invariant.set_enabled false;
  Fun.protect ~finally:(fun () -> Invariant.set_enabled was) f

let disciplines =
  [ Engine.Conventional; Engine.Ldlp Batch.All; Engine.Ldlp Batch.paper_default ]

let test_zero_alloc_quantum () =
  let run_discipline discipline =
    let layers =
      [
        Layer.passthrough "ether";
        Layer.passthrough "ip";
        Layer.v ~name:"sink" (fun _ -> Layer.consume_only);
      ]
    in
    let mpool = Msg.pool () in
    let eng =
      Engine.rx_chain ~discipline ~layers
        ~on_consume:(fun m -> Msg.release mpool m)
        ()
    in
    assert_alloc_free "rx_chain" (fun () ->
        for _ = 1 to batch do
          Engine.inject eng ~node:0 (Msg.acquire mpool ~arrival:0.0 ~size:64 0)
        done;
        Engine.run eng)
  in
  with_invariants_off (fun () -> List.iter run_discipline disciplines)

(* [Send_down m] and [Deliver_to (name, m)] carry their message, so a
   handler answering them allocates its action list per call.  Pooled
   records are recycled, so these test layers keep one prebuilt list per
   record (found by physical identity): what is measured is the engine's
   own allocation, not the handler's. *)
let memo_actions make =
  let cache = ref [] in
  fun m ->
    match List.assq m !cache with
    | actions -> actions
    | exception Not_found ->
      let actions = make m in
      cache := (m, actions) :: !cache;
      actions

(* A duplex stack whose top receive layer answers [Send_down]: the
   message crosses into the transmit side as the reply, descends through
   both transmit nodes and is released at the wire. *)
let test_zero_alloc_duplex () =
  let run_discipline discipline =
    let mpool = Msg.pool () in
    let ack = memo_actions (fun m -> [ Layer.Send_down m ]) in
    let eng =
      Engine.duplex ~discipline
        ~layers:[ Layer.passthrough "ip"; Layer.v ~name:"tcp" ack ]
        ~wire:(fun m -> Msg.release mpool m)
        ()
    in
    let rx = Engine.duplex_rx_entry eng in
    assert_alloc_free "duplex" (fun () ->
        for _ = 1 to batch do
          Engine.inject eng ~node:rx (Msg.acquire mpool ~arrival:0.0 ~size:64 0)
        done;
        Engine.run eng);
    checki "every reply reached the wire" ((4 + quanta) * batch)
      (Engine.stats eng).Engine.to_down
  in
  with_invariants_off (fun () -> List.iter run_discipline disciplines)

(* A demultiplexing graph: "ip" has two layers above it, so it must name
   its target with [Deliver_to]. *)
let test_zero_alloc_demux () =
  let run_discipline discipline =
    let mpool = Msg.pool () in
    let sink name = Layer.v ~name (fun _ -> Layer.consume_only) in
    let to_tcp = memo_actions (fun m -> [ Layer.Deliver_to ("tcp", m) ])
    and to_udp = memo_actions (fun m -> [ Layer.Deliver_to ("udp", m) ]) in
    let g, node =
      graph ~discipline
        ~on_consume:(fun m -> Msg.release mpool m)
        [
          (sink "tcp", []);
          (sink "udp", []);
          ( Layer.v ~name:"ip" (fun m ->
                if m.Msg.flow land 1 = 0 then to_tcp m else to_udp m),
            [ "tcp"; "udp" ] );
        ]
    in
    let ip = node "ip" in
    let k = ref 0 in
    assert_alloc_free "graph demux" (fun () ->
        for _ = 1 to batch do
          (* The flow is set in place: [~flow] would box a [Some]. *)
          let m = Msg.acquire mpool ~arrival:0.0 ~size:64 0 in
          incr k;
          m.Msg.flow <- !k;
          Engine.inject g ~node:ip m
        done;
        Engine.run g);
    let st = Engine.stats g in
    checki "every message demultiplexed" ((4 + quanta) * batch)
      st.Engine.consumed;
    checki "none misrouted" 0 st.Engine.misrouted;
    Alcotest.(check (list (pair string int)))
      "both branches taken"
      [ ("tcp", (4 + quanta) * batch / 2); ("udp", (4 + quanta) * batch / 2);
        ("ip", (4 + quanta) * batch) ]
      st.Engine.per_node
  in
  with_invariants_off (fun () -> List.iter run_discipline disciplines)

let qcheck t = QCheck_alcotest.to_alcotest t

let suite =
  [
    qcheck
      (QCheck.Test.make ~name:"chains conserve messages under limits"
         ~count:450 arb_case prop_chain_conservation);
    Alcotest.test_case "tx intake shedding" `Quick test_tx_intake_shedding;
    Alcotest.test_case "duplex layer names" `Quick test_duplex_layer_names;
    Alcotest.test_case "duplex entries" `Quick test_duplex_entries;
    Alcotest.test_case "duplex conservation" `Quick test_duplex_conservation;
    Alcotest.test_case "duplex same-pass ACKs" `Quick
      test_duplex_same_pass_acks;
    Alcotest.test_case "duplex shed at both entries" `Quick
      test_duplex_shed_both_entries;
    Alcotest.test_case "duplex metrics row shape" `Quick
      test_duplex_metrics_rows;
    Alcotest.test_case "zero-alloc steady-state quantum" `Quick
      test_zero_alloc_quantum;
    Alcotest.test_case "zero-alloc duplex Send_down" `Quick
      test_zero_alloc_duplex;
    Alcotest.test_case "zero-alloc graph Deliver_to" `Quick
      test_zero_alloc_demux;
    Alcotest.test_case "bad batch policy rejected" `Quick
      test_bad_policy_rejected;
    qcheck
      (QCheck.Test.make ~name:"node ring = Stdlib.Queue on traces"
         ~count:300 arb_ring_trace prop_ring_differential);
    qcheck
      (QCheck.Test.make ~name:"node ring grows in order wrapped" ~count:100
         QCheck.(pair (int_range 1 60) (int_range 200 900))
         prop_ring_growth_wrapped);
    Alcotest.test_case "node ring wraps at exact capacity" `Quick
      test_ring_exact_capacity;
    Alcotest.test_case "drained node ring steps idle" `Quick
      test_ring_drained_idle;
    qcheck
      (QCheck.Test.make ~name:"Dcache_fit bound reads ring in place"
         ~count:200
         QCheck.(
           pair (int_range 0 100)
             (list_of_size Gen.(int_range 1 80) (int_range 0 1500)))
         prop_dcache_in_place);
    qcheck
      (QCheck.Test.make ~name:"schedule = scan-every-node reference"
         ~count:500 arb_sched_case prop_schedule_matches_reference);
    Alcotest.test_case "route to unadded node raises" `Quick
      test_unadded_route_raises;
  ]

let graph_suite =
  [
    Alcotest.test_case "intake shedding" `Quick test_graph_intake_shedding;
    Alcotest.test_case "demux routes" `Quick test_demux_routes;
    Alcotest.test_case "ldlp blocked over graph" `Quick test_ldlp_blocked_over_graph;
    Alcotest.test_case "branch priority" `Quick
      test_priority_branch_closest_to_top_first;
    Alcotest.test_case "ambiguous deliver_up" `Quick
      test_ambiguous_deliver_up_misroutes;
    Alcotest.test_case "deliver_to non-edge" `Quick test_deliver_to_non_edge_misroutes;
    QCheck_alcotest.to_alcotest prop_graph_conservation;
  ]
