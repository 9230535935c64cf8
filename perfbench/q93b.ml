(* Workload q93b-storm: the paper's motivating workload.  Complete call
   lifecycles (SETUP -> the switch's CALL_PROC + CONNECT -> CONNECT_ACK ->
   RELEASE -> RELEASE_COMPLETE) through Sigproto.Layers.stack
   (link / sscop / q93b / call) against an auto-answering Switch, with about
   1,024 calls in flight, so the VC table inserts and removes state on
   every call.

   Messages are 20-60 bytes and carry no checksum: the cost sits in the TLV
   codecs, the call FSM and SSCOP, and engine overhead is a larger share
   than on tcp-rx-ack.  As there, a conventional and an LDLP stack receive
   identical frame sequences, alternating round by round. *)

module Core = Ldlp_core
module Engine = Core.Engine
module Msg = Core.Msg
module Pool = Ldlp_buf.Pool
module Rng = Ldlp_sim.Rng
module Heap = Ldlp_sim.Heap
module Samples = Meas.Samples
open Ldlp_sigproto

let port = 1

let in_flight = 1024

(* Open-loop mean offered load, calls/s, three caller messages each.  On a
   2-core x86-64 host, when this benchmark was written, LDLP burst
   saturation was about 1.1M msgs/s but the open loop fell behind well
   below 450k msgs/s: this (about 245k msgs/s) is about half of what the
   open loop sustains there. *)
let offered_calls = 80_000.0

let connect_code = Sigmsg.msg_type_code Sigmsg.Connect

(* ---------- caller-side generation (never timed) ---------- *)

type kind = Setup | Connect_ack | Release

type gen = {
  rng : Rng.t;
  mutable seq : int;  (** Caller SSCOP send sequence. *)
  mutable replies : int;  (** Frames the switch will have sent back. *)
  mutable next_call : int;
  active : int array;  (** Connected calls, candidates for release. *)
  mutable nactive : int;
  ready : bytes Queue.t;  (** Encoded frames not yet handed out. *)
}

let call_ref c = (c mod 0x7FFFF0) + 1

let ack_every = 64

(* The caller's frames for one message: the message in a sequenced SSCOP
   frame, and every [ack_every] messages a cumulative SSCOP ack for the
   switch's own replies (CALL_PROC + CONNECT per SETUP, RELEASE_COMPLETE
   per RELEASE), so the switch's retransmission buffer stays bounded. *)
let encode g c kind =
  let call_ref = call_ref c in
  let msg, replies =
    match kind with
    | Setup ->
      (Sigmsg.v ~call_ref Sigmsg.Setup [ Ie.called_party "local:80"; Ie.qos 1 ], 2)
    | Connect_ack -> (Sigmsg.v ~call_ref Sigmsg.Connect_ack [], 0)
    | Release -> (Sigmsg.v ~call_ref Sigmsg.Release [], 1)
  in
  let f = Sscop.frame ~tag:'D' ~seq:(g.seq land 0xFFFFFF) (Sigmsg.encode msg) in
  g.seq <- g.seq + 1;
  g.replies <- g.replies + replies;
  if g.seq mod ack_every = 0 then
    [ f; Sscop.frame ~tag:'A' ~seq:(g.replies land 0xFFFFFF) Bytes.empty ]
  else [ f ]

let emit g c kind = List.iter (fun f -> Queue.push f g.ready) (encode g c kind)

(* The first [in_flight] calls, set up and connected: the set-up script. *)
let make_gen ~seed =
  let g =
    {
      rng = Rng.create ~seed;
      seq = 0;
      replies = 0;
      next_call = 0;
      active = Array.make (in_flight + 1) 0;
      nactive = 0;
      ready = Queue.create ();
    }
  in
  let setups = List.init in_flight (fun c -> encode g c Setup) in
  let acks = List.init in_flight (fun c -> encode g c Connect_ack) in
  for c = 0 to in_flight - 1 do
    g.active.(c) <- c
  done;
  g.nactive <- in_flight;
  g.next_call <- in_flight;
  (g, Array.of_list (List.concat (setups @ acks)))

let release_random g =
  let j = Rng.int g.rng g.nactive in
  let c = g.active.(j) in
  g.nactive <- g.nactive - 1;
  g.active.(j) <- g.active.(g.nactive);
  emit g c Release

(* One closed-loop slot: a new call's SETUP and, with no think time, its
   CONNECT_ACK (the engine keeps the caller's frames in order, so the
   switch has answered the SETUP before the CONNECT_ACK reaches it); then
   the release of a random connected call, so [in_flight] stay up. *)
let slot g =
  let c = g.next_call in
  g.next_call <- c + 1;
  emit g c Setup;
  emit g c Connect_ack;
  g.active.(g.nactive) <- c;
  g.nactive <- g.nactive + 1;
  if g.nactive > in_flight then release_random g

let take g n =
  while Queue.length g.ready < n do
    slot g
  done;
  Array.init n (fun _ -> Queue.pop g.ready)

(* Wind the closed-loop storm down: a RELEASE for every connected call. *)
let wind_down g =
  while g.nactive > 0 do
    release_random g
  done;
  take g (Queue.length g.ready)

(* The open loop: Poisson call arrivals.  The caller sends CONNECT_ACK
   [think_s] after its SETUP, the setup latency the paper sets as its goal
   (the switch's CONNECT is back well within it here), and holds each call
   for an exponential time (the classic telephony assumption) whose mean,
   by Little's law, keeps about [in_flight] calls up. *)
let think_s = 100e-6

type open_gen = {
  g : gen;
  rng : Rng.t;  (** Its own stream, independent of the saturation phase. *)
  mutable next_setup : float;
  events : (kind * int) Heap.t;
  mutable setups : int;
}

let make_open (g : gen) =
  let rng = Rng.split g.rng in
  {
    g;
    rng;
    next_setup = Rng.exponential rng ~mean:(1.0 /. offered_calls);
    events = Heap.create ();
    setups = 0;
  }

(* Frames due in chunk [ch], in time order, with due offsets from its
   start. *)
let open_window o ch =
  let g = o.g in
  let t0 = float_of_int ch *. Common.chunk_s in
  let t1 = t0 +. Common.chunk_s in
  let frames = ref [] in
  let push at f = frames := (int_of_float ((at -. t0) *. 1e9), f) :: !frames in
  let rec loop () =
    let ev_at =
      match Heap.peek o.events with Some (at, _) -> at | None -> infinity
    in
    if o.next_setup < t1 && o.next_setup <= ev_at then begin
      let at = o.next_setup in
      let c = g.next_call in
      g.next_call <- c + 1;
      o.setups <- o.setups + 1;
      List.iter (push at) (encode g c Setup);
      Heap.push o.events (at +. think_s) (Connect_ack, c);
      let hold = Rng.exponential o.rng ~mean:(float_of_int in_flight /. offered_calls) in
      Heap.push o.events (at +. think_s +. hold) (Release, c);
      o.next_setup <- at +. Rng.exponential o.rng ~mean:(1.0 /. offered_calls);
      loop ()
    end
    else if ev_at < t1 then begin
      (match Heap.pop o.events with
      | Some (at, (kind, c)) -> List.iter (push at) (encode g c kind)
      | None -> ());
      loop ()
    end
  in
  loop ();
  let a = Array.of_list (List.rev !frames) in
  { Common.inputs = Array.map snd a; due = Array.map fst a }

(* Everything still scheduled (owed CONNECT_ACKs and RELEASEs), in order. *)
let open_drain o =
  let rec loop acc =
    match Heap.pop o.events with
    | Some (_, (kind, c)) -> loop (List.rev_append (encode o.g c kind) acc)
    | None -> Array.of_list (List.rev acc)
  in
  loop []

(* ---------- one stack under one discipline ---------- *)

type side = {
  name : string;
  pool : Pool.t;
  switch : Switch.t;
  stack : Layers.stack;
  meter : Common.meter;
  mutable eng : Layers.item Engine.t;
  tx : bytes array;
  mutable ntx : int;
  mutable tx_frames : int;
  mutable tx_digest : int;
  mutable odd_tx : int;
  mutable fed : int;  (** Frames fed untimed: set-up, wind-down, tail. *)
  mutable active_peak : int;
}

let hash_bytes b =
  let h = ref 0x4bf29ce484222325 in
  Bytes.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) b;
  !h

(* Transmitted frames may leave in a different order under the two
   disciplines (LDLP emits a batch's SSCOP acks before its replies), so
   their digest is an order-insensitive sum. *)
let retire_tx s b =
  s.tx_digest <- s.tx_digest + (hash_bytes b land 0xFFFFFFFFFFFF);
  s.tx_frames <- s.tx_frames + 1

let drain_tx s =
  for i = 0 to s.ntx - 1 do
    retire_tx s s.tx.(i)
  done;
  s.ntx <- 0;
  s.active_peak <- max s.active_peak (Switch.active_calls s.switch)

(* The down sink runs inside the timed engine calls: it parks the frame
   and stamps the switch's CONNECT — the moment the caller's SETUP has
   been answered. *)
let on_down s (m : Layers.item Msg.t) =
  match m.Msg.payload with
  | Layers.Sdu (_, b) ->
    if Bytes.length b > 9 && Bytes.get b 0 = 'D' && Char.code (Bytes.get b 9) = connect_code
    then Common.delivered s.meter m;
    if s.ntx < Array.length s.tx then begin
      s.tx.(s.ntx) <- b;
      s.ntx <- s.ntx + 1
    end
    else retire_tx s b
  | Layers.Raw _ | Layers.Signalling _ | Layers.Decoded _ -> s.odd_tx <- s.odd_tx + 1

(* A linear receive chain, as Sched builds it: node i is layer i, the
   furthest layer from the entry wins, Send_down goes to the sink. *)
let linear_engine ~discipline ~down layers =
  let eng = Engine.create ~discipline ~down () in
  let arr = Array.of_list layers in
  let top = Array.length arr - 1 in
  Array.iteri
    (fun i layer ->
      ignore
        (Engine.add_node eng ~layer ~use_tx:false ~priority:i ~entry:(i = 0)
           ~up_route:(if i = top then Engine.To_up else Engine.To_node (i + 1))
           ~to_route:(fun _ -> Engine.Misroute)
           ~down_route:Engine.To_down))
    arr;
  eng

let make_msg s frame ~arrival =
  let m = Layers.frame ~pool:s.pool ~port frame in
  Msg.make ~arrival ~size:(Ldlp_buf.Mbuf.length m) (Layers.Raw m)

(* Feed frames untimed, in bursts, running the engine to idle after each. *)
let feed s frames =
  Array.iteri
    (fun i f ->
      Engine.inject s.eng ~node:0 (make_msg s f ~arrival:0.0);
      if (i + 1) mod Common.burst = 0 then Engine.run s.eng)
    frames;
  Engine.run s.eng;
  s.fed <- s.fed + Array.length frames;
  drain_tx s

(* Set-up: switch, stack, engine, and the first 1,024 calls brought up. *)
let setup ~name ~discipline script =
  let pool = Pool.create () in
  let switch = Switch.create ~auto_answer:true ~routes:[] ~local_port:0 () in
  let stack = Layers.stack ~pool ~switch () in
  let s =
    {
      name;
      pool;
      switch;
      stack;
      meter = Common.meter ();
      eng = Engine.create ~discipline ();
      tx = Array.make 4096 Bytes.empty;
      ntx = 0;
      tx_frames = 0;
      tx_digest = 0;
      odd_tx = 0;
      fed = 0;
      active_peak = 0;
    }
  in
  s.eng <- linear_engine ~discipline ~down:(on_down s) stack.Layers.layers;
  feed s script;
  s

let inst s =
  {
    Common.meter = s.meter;
    eng = s.eng;
    traced = None;
    entry = 0;
    make_msg = make_msg s;
    drain = (fun () -> drain_tx s);
    service = (fun ~idle -> if idle then drain_tx s);
  }

let layer_names = [ "link"; "sscop"; "q93b"; "call" ]

let ldlp_discipline = Engine.Ldlp Core.Batch.paper_default

let run ~seed ~seconds ~trace (r : Record.t) =
  let g, script = make_gen ~seed in
  let hr = Meas.Hostref.create () in
  let og = make_open g in
  let setup_times = ref [] in
  let build name discipline =
    Common.build hr ~times:setup_times (fun () -> setup ~name ~discipline script)
  in
  let conv_s = build "conv" Engine.Conventional in
  let ldlp_s = build "ldlp" ldlp_discipline in
  let conv = inst conv_s and ldlp = inst ldlp_s in
  let lat_cap = int_of_float (offered_calls *. Common.open_share *. seconds *. 1.5) + 1024 in
  let tr =
    if trace then begin
      let tr, layers =
        Common.trace_layers ldlp.meter ~names:layer_names ~waits_cap:lat_cap
          ldlp_s.stack.Layers.layers
      in
      ldlp.traced <-
        Some (linear_engine ~discipline:ldlp_discipline ~down:(on_down ldlp_s) layers);
      Some tr
    end
    else None
  in
  Common.prepare ~seconds [ conv; ldlp ];
  let gc0 = Gc.quick_stat () in
  Common.saturation hr ~seconds ~tr ~conv ~ldlp (take g);
  (* Per-layer costs describe the saturation phase, like msgs_per_s. *)
  let sat_spans = Option.map (fun tr -> Spans.snapshot tr.Common.sp) tr in
  let sat_stats = Option.map Engine.stats ldlp.traced in
  (* The heap's high-water mark through set-up and saturation. *)
  Record.metric r "peak_heap_mb" "MB" (Meas.peak_heap_mb ());
  let closing = wind_down g in
  List.iter (fun s -> feed s closing) [ conv_s; ldlp_s ];
  let gen_late =
    Common.open_loop hr ~tr ~conv ~ldlp ~chunks:(Common.open_chunks seconds)
      ~capacity:lat_cap (open_window og)
  in
  let tail = open_drain og in
  List.iter (fun s -> feed s tail) [ conv_s; ldlp_s ];
  let gc1 = Gc.quick_stat () in
  (* ---------- checks ---------- *)
  let calls = g.next_call in
  let rx s = s.fed + s.meter.Common.msgs in
  List.iter
    (fun (s, (x : _ Common.inst)) ->
      let p = s.name ^ "." in
      let st = Switch.stats s.switch in
      Record.check_int r (p ^ "rx") (rx s);
      Record.check_int r (p ^ "setups_routed") st.Switch.setups_routed;
      Record.check_int r (p ^ "calls_connected") st.Switch.calls_connected;
      Record.check_int r (p ^ "calls_released") st.Switch.calls_released;
      Record.check_int r (p ^ "protocol_errors") st.Switch.protocol_errors;
      Record.check_int r (p ^ "rejected") st.Switch.rejected;
      Record.check_int r (p ^ "active_calls_end") (Switch.active_calls s.switch);
      Record.check_int r (p ^ "tx_frames") s.tx_frames;
      Record.check r (p ^ "tx_digest") (Json.Str (Printf.sprintf "%016x" s.tx_digest));
      Record.check_int r (p ^ "odd_tx") s.odd_tx;
      Record.check_int r (p ^ "latency_samples") (Samples.length s.meter.Common.lat);
      Record.check_int r (p ^ "buf_in_use")
        (let ps = Pool.stats s.pool in
         ps.Pool.small_in_use + ps.Pool.cluster_in_use);
      Record.attempted r (rx s);
      let shed =
        List.fold_left
          (fun a e ->
            let es = Engine.stats e in
            a + es.Engine.shed + es.Engine.misrouted)
          0
          (x.Common.eng :: Option.to_list x.Common.traced)
      in
      Record.failure r (p ^ "shed_or_misrouted") shed;
      Record.failure r (p ^ "protocol_errors") st.Switch.protocol_errors;
      Record.failure r (p ^ "rejected") st.Switch.rejected;
      Record.failure r (p ^ "uncompleted_calls") (max 0 (calls - st.Switch.calls_released)))
    [ (conv_s, conv); (ldlp_s, ldlp) ];
  Record.check_int r "calls" calls;
  Record.check_int r "open_loop_setups" og.setups;
  (* ---------- metrics ---------- *)
  (match (tr, sat_spans, sat_stats) with
  | Some tr, Some sp, Some st ->
    List.iter
      (fun l ->
        let n = Spans.count sp l in
        Record.metric r ("sigproto." ^ l ^ ".ns_per_msg") "ns"
          (Record.ratio (Spans.self_ns sp l) (float_of_int n)) ~n;
        Record.metric r ("sigproto." ^ l ^ ".words_per_msg") "words"
          (Record.ratio (Spans.words sp l) (float_of_int n)) ~n)
      layer_names;
    Record.metric r "sigproto.tx_per_rx" "ratio"
      (Record.ratio (float_of_int ldlp_s.tx_frames) (float_of_int (rx ldlp_s)))
      ~n:(rx ldlp_s);
    Record.metric r "sigproto.active_calls_peak" "count" (float_of_int ldlp_s.active_peak);
    let ps = Pool.stats ldlp_s.pool in
    Record.metric r "buf.pool_peak_small" "count" (float_of_int ps.Pool.peak_small);
    Record.metric r "buf.pool_peak_cluster" "count" (float_of_int ps.Pool.peak_cluster);
    Record.metric r "buf.in_use_end" "count"
      (float_of_int (ps.Pool.small_in_use + ps.Pool.cluster_in_use));
    Common.traced_stack_metrics r ~tr ~sat_spans:sp ~sat_stats:st ~msgs:(Spans.count sp "link")
      ~ldlp ~gc0 ~gc1 ~gc_msgs:(conv.meter.Common.msgs + ldlp.meter.Common.msgs) ~gen_late
  | _ -> Common.stack_metrics r ~conv ~ldlp);
  Common.setup_metrics r ~setup_times:!setup_times ~hostref:hr
