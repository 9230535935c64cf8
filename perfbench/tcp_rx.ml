(* Workload tcp-rx-ack: the paper's Section 2 receive-and-acknowledge path
   on the real tcpmini host, both directions under one Engine.duplex.

   1,024 connections into one listener, established during set-up.  Data
   segments follow Sizes.ethernet_mix; flow order comes from Flowmix, so
   both the one-entry PCB cache and the flow table behind it do work.  The
   application reads every socket buffer the frames touched after each
   burst (saturation) or whenever the engine goes idle (open loop), and
   checks every byte against the generated stream.  The host ACKs every
   second segment inside the same scheduling pass.

   A conventional and an LDLP host receive byte-identical frame sequences,
   alternating round by round, so host noise hits both alike and their
   wire output can be compared frame for frame. *)

module Core = Ldlp_core
module Engine = Core.Engine
module Msg = Core.Msg
module Mbuf = Ldlp_buf.Mbuf
module Pool = Ldlp_buf.Pool
module Pkt = Ldlp_packet
module Rng = Ldlp_sim.Rng
module Tr = Ldlp_traffic
module Samples = Meas.Samples
open Ldlp_tcpmini

let nconns = 1024

(* Ethernet + IPv4 + TCP headers: a 64-byte frame carries 10 payload
   bytes. *)
let headers = 54

(* Socket buffers far above the 16-bit window, so the advertised window is
   always 0xFFFF and ACK bytes do not depend on when the reader ran. *)
let hiwat = 1 lsl 22

(* Open-loop mean offered rate, frames/s, as Onoff.mean_rate gives it.
   On a 2-core x86-64 host, when this benchmark was written, LDLP burst
   saturation was 650-800k frames/s but the open loop (frames copied in
   as they arrive, one quantum at a time, the reader interleaved) fell
   behind from about 250k. *)
let offered_rate = 150_000.0

let warmup_s = 2.0

let reader_every = 256

let host_mac = Pkt.Addr.Mac.of_string "02:00:00:00:00:01"

let host_ip = Pkt.Addr.Ipv4.of_string "10.0.0.1"

let port = 80

let client_ip =
  Array.init nconns (fun c ->
      Pkt.Addr.Ipv4.of_string (Printf.sprintf "10.1.%d.%d" (c / 64) (1 + (c mod 64))))

let client_port c = 20000 + c

let client_isn c = Int32.of_int (1_000_000 + (c * 7919))

let server_ack = Int32.add Tcp_input.initial_send_seq 1l

let data_flags = Pkt.Tcp.flag_ack lor Pkt.Tcp.flag_psh

(* ---------- input generation (never timed) ---------- *)

(* Payload bytes of connection [c] at stream offset [o] are
   [pattern.((phase.(c) + o) mod pat_len)]; the pattern carries a copy of
   its head so a slice of up to [pat_tail] bytes never wraps. *)
let pat_len = 65536

let pat_tail = 2048

type gen = {
  rng : Rng.t;
  flows : Tr.Flowmix.t;
  open_rng : Rng.t;
  open_flows : Tr.Flowmix.t;
      (** The open loop's own streams, so its inputs do not depend on how
          many saturation rounds ran. *)
  pattern : bytes;
  phase : int array;
  sent : int array;  (** Stream bytes generated per connection. *)
  framer : Host.t;  (** Builds client frames; never receives. *)
  framer_pool : Pool.t;
}

let make_gen ~seed =
  let rng = Rng.create ~seed in
  let pattern = Bytes.create (pat_len + pat_tail) in
  for i = 0 to pat_len - 1 do
    Bytes.set pattern i (Char.chr (Rng.int rng 256))
  done;
  Bytes.blit pattern 0 pattern pat_len pat_tail;
  let framer_pool = Pool.create () in
  let flowmix rng = Tr.Flowmix.create ~rng (Tr.Flowmix.default ~flows:nconns) in
  let flows = flowmix (Rng.split rng) in
  let open_rng = Rng.split rng in
  let open_flows = flowmix (Rng.split rng) in
  {
    rng;
    flows;
    open_rng;
    open_flows;
    pattern;
    phase = Array.init nconns (fun _ -> Rng.int rng pat_len);
    sent = Array.make nconns 0;
    framer = Host.create ~pool:framer_pool ~mac:host_mac ~ip:host_ip ();
    framer_pool;
  }

let frame_bytes g m =
  let b = Mbuf.to_bytes m in
  Mbuf.free g.framer_pool m;
  b

let handshake_frames g =
  let syn c =
    frame_bytes g
      (Host.client_frame g.framer ~src_ip:client_ip.(c) ~src_port:(client_port c)
         ~dst_port:port ~seq:(client_isn c) ~ack:0l ~flags:Pkt.Tcp.flag_syn ())
  and ack c =
    frame_bytes g
      (Host.client_frame g.framer ~src_ip:client_ip.(c) ~src_port:(client_port c)
         ~dst_port:port
         ~seq:(Int32.add (client_isn c) 1l)
         ~ack:server_ack ~flags:Pkt.Tcp.flag_ack ())
  in
  (Array.init nconns syn, Array.init nconns ack)

(* One data frame of the next connection in Flowmix order, with that
   connection's next stream bytes: (connection, frame). *)
let data_frame g ~flows ~size =
  let c = Tr.Flowmix.next flows in
  let len = max 1 (size - headers) in
  let payload = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let start = (g.phase.(c) + g.sent.(c) + !pos) land (pat_len - 1) in
    let piece = min pat_tail (len - !pos) in
    Bytes.blit g.pattern start payload !pos piece;
    pos := !pos + piece
  done;
  let seq = Int32.add (client_isn c) (Int32.of_int (1 + g.sent.(c))) in
  g.sent.(c) <- g.sent.(c) + len;
  ( c,
    frame_bytes g
      (Host.client_frame g.framer ~src_ip:client_ip.(c) ~src_port:(client_port c)
         ~dst_port:port ~seq ~ack:server_ack ~flags:data_flags ~payload ()) )

let saturation_inputs g n =
  Array.init n (fun _ -> data_frame g ~flows:g.flows ~size:(Tr.Sizes.sample g.rng Tr.Sizes.ethernet_mix))

(* The open-loop arrival schedule over [seconds]: Onoff.default's shape
   (the paper's Bellcore stand-in: alpha 1.2 ON and OFF, 50 ms ON, 1.1 s
   OFF, 1,000 frames/s per source while ON) with as many sources as give
   a mean of [offered_rate].  The sources start in phase, so the first
   [warmup_s] of arrivals are skipped. *)
let onoff_schedule g ~seconds =
  let d = Tr.Onoff.default in
  let per_source = Tr.Onoff.mean_rate { d with Tr.Onoff.sources = 1 } in
  let config =
    { d with Tr.Onoff.sources = int_of_float (Float.round (offered_rate /. per_source)) }
  in
  let src = Tr.Onoff.source ~rng:g.open_rng ~config () in
  let at = ref [] and size = ref [] in
  let rec pull () =
    let p = Option.get (Tr.Source.pull src) in
    let t = p.Tr.Source.at -. warmup_s in
    if t < seconds then begin
      if t >= 0.0 then begin
        at := t :: !at;
        size := p.Tr.Source.size :: !size
      end;
      pull ()
    end
  in
  pull ();
  (Array.of_list (List.rev !at), Array.of_list (List.rev !size))

(* The schedule's frames due in [t0, t0 + chunk_s), from index [!lo]. *)
let open_loop_chunk g (at, size) ~lo ch =
  let t0 = float_of_int ch *. Common.chunk_s in
  let hi = ref !lo in
  while !hi < Array.length at && at.(!hi) < t0 +. Common.chunk_s do
    incr hi
  done;
  let n = !hi - !lo in
  let base = !lo in
  lo := !hi;
  let due = Array.init n (fun i -> int_of_float ((at.(base + i) -. t0) *. 1e9)) in
  let inputs = Array.init n (fun i -> data_frame g ~flows:g.open_flows ~size:size.(base + i)) in
  { Common.inputs; due }


(* ---------- one host under one discipline ---------- *)

type side = {
  name : string;
  pool : Pool.t;
  mp : Host.item Msg.pool;
  host : Host.t;
  meter : Common.meter;
  mutable eng : Host.item Engine.t;
  mutable pcbs : Pcb.t array;
  wire : Mbuf.t array;
  mutable nwire : int;
  mutable wire_frames : int;
  mutable wire_digest : int;
  dirty : int array;
  mutable ndirty : int;
  mutable unread : int;  (** Frames delivered since the reader last ran. *)
  stamp : int array;
  mutable epoch : int;
  recv : int array;  (** Stream bytes read and checked per connection. *)
  mutable mismatch : int;
}

(* FNV-1a over a frame's bytes, folded order-sensitively into the wire
   digest. *)
let hash_frame m =
  let h = ref 0x4bf29ce484222325 in
  Mbuf.iter_segments m (fun buf off len ->
      for i = off to off + len - 1 do
        h := (!h lxor Char.code (Bytes.unsafe_get buf i)) * 0x100000001b3
      done);
  !h

let retire_wire s m =
  s.wire_digest <- (s.wire_digest * 1000003) lxor hash_frame m;
  s.wire_frames <- s.wire_frames + 1;
  Mbuf.free s.pool m

let drain_wire s =
  for i = 0 to s.nwire - 1 do
    retire_wire s s.wire.(i)
  done;
  s.nwire <- 0

(* The wire sink runs inside the timed engine calls: it only parks the
   frame, which [drain_wire] hashes and frees afterwards. *)
let on_wire s (m : Host.item Msg.t) =
  let f = m.Msg.payload.Host.buf in
  if s.nwire < Array.length s.wire then begin
    s.wire.(s.nwire) <- f;
    s.nwire <- s.nwire + 1
  end
  else retire_wire s f;
  Msg.release s.mp m

let mark_dirty s c =
  if s.stamp.(c) <> s.epoch then begin
    s.stamp.(c) <- s.epoch;
    s.dirty.(s.ndirty) <- c;
    s.ndirty <- s.ndirty + 1
  end

(* A data frame leaves the engine when the TCP layer has appended it to the
   socket buffer and consumed it; its flow is the connection, whose buffer
   the reader must now visit. *)
let on_consume s (m : Host.item Msg.t) =
  Common.delivered s.meter m;
  mark_dirty s m.Msg.flow;
  s.unread <- s.unread + 1;
  Msg.release s.mp m

let rec equal_sub a ao b bo len =
  if len >= 8 then
    Int64.equal (Bytes.get_int64_ne a ao) (Bytes.get_int64_ne b bo)
    && equal_sub a (ao + 8) b (bo + 8) (len - 8)
  else if len > 0 then
    Bytes.get a ao = Bytes.get b bo && equal_sub a (ao + 1) b (bo + 1) (len - 1)
  else true

(* The application: read every touched socket buffer and check each byte
   against the generated stream at its offset. *)
let drain_app s g =
  for i = 0 to s.ndirty - 1 do
    let c = s.dirty.(i) in
    let sb = s.pcbs.(c).Pcb.sockbuf in
    if Sockbuf.length sb > 0 then begin
      let data = Sockbuf.read_all sb in
      let len = Bytes.length data in
      let pos = ref 0 in
      while !pos < len do
        let start = (g.phase.(c) + s.recv.(c) + !pos) land (pat_len - 1) in
        let piece = min pat_tail (len - !pos) in
        if not (equal_sub data !pos g.pattern start piece) then
          s.mismatch <- s.mismatch + piece;
        pos := !pos + piece
      done;
      s.recv.(c) <- s.recv.(c) + len
    end
  done;
  s.ndirty <- 0;
  s.unread <- 0;
  s.epoch <- s.epoch + 1

let make_msg s (conn, frame) ~arrival =
  let m = Mbuf.of_bytes s.pool frame in
  Msg.acquire s.mp ~flow:conn ~arrival ~size:(Mbuf.length m) (Host.wrap s.host m)

let duplex_engine s ~discipline layers =
  Engine.duplex ~discipline ~layers ~wire:(on_wire s) ~on_consume:(on_consume s) ()

(* Set-up: host, listener, engine and the 1,024 handshakes. *)
let setup ~name ~discipline (syns, acks) =
  let pool = Pool.create () in
  let mp = Msg.pool () in
  let host = Host.create ~pool ~msg_pool:mp ~mac:host_mac ~ip:host_ip () in
  ignore (Pcb.listen (Host.table host) ~port ~hiwat ());
  let dummy_buf = Mbuf.get pool in
  Mbuf.free pool dummy_buf;
  let s =
    {
      name;
      pool;
      mp;
      host;
      meter = Common.meter ();
      eng = Engine.create ~discipline ();
      pcbs = [||];
      wire = Array.make 4096 dummy_buf;
      nwire = 0;
      wire_frames = 0;
      wire_digest = 0;
      dirty = Array.make nconns 0;
      ndirty = 0;
      unread = 0;
      stamp = Array.make nconns (-1);
      epoch = 0;
      recv = Array.make nconns 0;
      mismatch = 0;
    }
  in
  s.eng <- duplex_engine s ~discipline (Host.layers host);
  let inject_all frames =
    Array.iteri
      (fun i f ->
        Engine.inject s.eng ~node:(Engine.duplex_rx_entry s.eng)
          (make_msg s (0, f) ~arrival:0.0);
        if (i + 1) mod Common.burst = 0 then begin
          Engine.run s.eng;
          drain_wire s
        end)
      frames;
    Engine.run s.eng;
    drain_wire s
  in
  inject_all syns;
  inject_all acks;
  s.pcbs <-
    Array.init nconns (fun c ->
        match
          Pcb.lookup (Host.table host) ~local_port:port
            ~remote:(client_ip.(c), client_port c)
        with
        | Some pcb -> pcb
        | None -> failwith "tcp-rx-ack: handshake did not create a connection");
  s

let established s =
  Array.fold_left
    (fun n pcb -> if pcb.Pcb.state = Pcb.Established then n + 1 else n)
    0 s.pcbs

(* The phase runner's view of a host.  The application reads after
   each burst, and in the open loop whenever the engine is idle or
   [reader_every] frames wait unread. *)
let inst s g =
  let read () =
    drain_wire s;
    drain_app s g
  in
  {
    Common.meter = s.meter;
    eng = s.eng;
    traced = None;
    entry = Engine.duplex_rx_entry s.eng;
    make_msg = make_msg s;
    drain = read;
    service = (fun ~idle -> if idle || s.unread >= reader_every then read ());
  }

let layer_names = [ "ether"; "ip"; "tcp" ]

let ldlp_discipline = Engine.Ldlp Core.Batch.paper_default

let run ~seed ~seconds ~trace (r : Record.t) =
  let g = make_gen ~seed in
  let hr = Meas.Hostref.create () in
  let hs = handshake_frames g in
  let setup_times = ref [] in
  let build name discipline =
    Common.build hr ~times:setup_times (fun () -> setup ~name ~discipline hs)
  in
  let conv_s = build "conv" Engine.Conventional in
  let ldlp_s = build "ldlp" ldlp_discipline in
  let conv = inst conv_s g and ldlp = inst ldlp_s g in
  let expected_open = int_of_float (1.5 *. offered_rate *. Common.open_share *. seconds) in
  let tr =
    if trace then begin
      let tr, layers =
        Common.trace_layers ldlp.meter ~names:layer_names ~waits_cap:expected_open
          (Host.layers ldlp_s.host)
      in
      ldlp.traced <- Some (duplex_engine ldlp_s ~discipline:ldlp_discipline layers);
      Some tr
    end
    else None
  in
  Common.prepare ~seconds [ conv; ldlp ];
  Tcp_input.reset_stats ();
  let table = Host.table ldlp_s.host in
  let pcb0 = Pcb.stats table in
  let ft0 = Ldlp_flowtable.Flowtable.stats (Pcb.flowtable table) in
  let gc0 = Gc.quick_stat () in
  Common.saturation hr ~seconds ~tr ~conv ~ldlp (saturation_inputs g);
  (* Per-layer costs describe the saturation phase, like msgs_per_s. *)
  let sat_spans = Option.map (fun tr -> Spans.snapshot tr.Common.sp) tr in
  let sat_stats = Option.map Engine.stats ldlp.traced in
  (* The heap's high-water mark through set-up and saturation. *)
  Record.metric r "peak_heap_mb" "MB" (Meas.peak_heap_mb ());
  (* Open loop over the same hosts, chunk by chunk. *)
  let sched = onoff_schedule g ~seconds:(Common.open_share *. seconds) in
  let open_frames = Array.length (fst sched) in
  let lo = ref 0 in
  let gen_late =
    Common.open_loop hr ~tr ~conv ~ldlp ~chunks:(Common.open_chunks seconds)
      ~capacity:open_frames (open_loop_chunk g sched ~lo)
  in
  let gc1 = Gc.quick_stat () in
  let ts = Tcp_input.stats () in
  let pcb1 = Pcb.stats table in
  let ft1 = Ldlp_flowtable.Flowtable.stats (Pcb.flowtable table) in
  (* ---------- checks ---------- *)
  let expected = Array.fold_left ( + ) 0 g.sent in
  let delivered s = Array.fold_left ( + ) 0 s.recv in
  let undelivered s =
    let n = ref 0 in
    Array.iteri (fun c sent -> if s.recv.(c) <> sent then incr n) g.sent;
    !n
  in
  let host_failures s =
    let c = Host.counters s.host in
    c.Host.non_ip + c.Host.non_tcp + c.Host.bad_ip
  in
  let shed_and_misrouted (x : _ Common.inst) =
    List.fold_left
      (fun a e ->
        let st = Engine.stats e in
        a + st.Engine.shed + st.Engine.misrouted)
      0
      (x.Common.eng :: Option.to_list x.Common.traced)
  in
  List.iter
    (fun s ->
      let p = s.name ^ "." in
      Record.check_int r (p ^ "frames") s.meter.Common.msgs;
      Record.check_int r (p ^ "established") (established s);
      Record.check_int r (p ^ "delivered_bytes") (delivered s);
      Record.check_int r (p ^ "mismatch_bytes") s.mismatch;
      Record.check_int r (p ^ "undelivered_conns") (undelivered s);
      Record.check_int r (p ^ "wire_frames") s.wire_frames;
      Record.check r (p ^ "wire_digest") (Json.Str (Printf.sprintf "%016x" s.wire_digest));
      Record.check_int r (p ^ "buf_in_use")
        (let ps = Pool.stats s.pool in
         ps.Pool.small_in_use + ps.Pool.cluster_in_use);
      Record.check_int r (p ^ "msg_outstanding") (Msg.pool_stats s.mp).Msg.p_outstanding;
      Record.check_int r (p ^ "latency_samples") (Samples.length s.meter.Common.lat);
      Record.attempted r s.meter.Common.msgs)
    [ conv_s; ldlp_s ];
  Record.check_int r "expected_bytes" expected;
  Record.check_int r "open_loop_frames" open_frames;
  Record.check r "open_loop_rate"
    (Json.Float (float_of_int open_frames /. (Common.open_share *. seconds)));
  Record.check_int r "tcp_drops" ts.Tcp_input.drops;
  Record.failure r "shed_or_misrouted" (shed_and_misrouted conv + shed_and_misrouted ldlp);
  Record.failure r "tcp_drops" ts.Tcp_input.drops;
  Record.failure r "bad_frames" (host_failures conv_s + host_failures ldlp_s);
  Record.failure r "undelivered_conns" (undelivered conv_s + undelivered ldlp_s);
  (* ---------- metrics ---------- *)
  (match (tr, sat_spans, sat_stats) with
  | Some tr, Some sp, Some st ->
    List.iter
      (fun l ->
        List.iter
          (fun k ->
            let n = Spans.count sp k in
            Record.metric r ("tcpmini." ^ k ^ ".ns_per_msg") "ns"
              (Record.ratio (Spans.self_ns sp k) (float_of_int n)) ~n;
            Record.metric r ("tcpmini." ^ k ^ ".words_per_msg") "words"
              (Record.ratio (Spans.words sp k) (float_of_int n)) ~n)
          [ l; l ^ "-tx" ])
      layer_names;
    let fp = float_of_int ts.Tcp_input.fastpath_hits in
    Record.metric r "tcpmini.fastpath_ratio" "ratio"
      (Record.ratio fp (fp +. float_of_int ts.Tcp_input.slowpath))
      ~n:(ts.Tcp_input.fastpath_hits + ts.Tcp_input.slowpath);
    let traced_frames = Spans.count sp "tcp" in
    Record.metric r "tcpmini.acks_per_segment" "ratio"
      (Record.ratio (float_of_int (Spans.count sp "tcp-tx")) (float_of_int traced_frames))
      ~n:traced_frames;
    let lookups = pcb1.Pcb.lookups - pcb0.Pcb.lookups in
    let frames = ldlp.meter.Common.msgs in
    Record.metric r "flowtable.pcb_cache_hit_ratio" "ratio"
      (Record.ratio (float_of_int (pcb1.Pcb.cache_hits - pcb0.Pcb.cache_hits)) (float_of_int lookups))
      ~n:lookups;
    Record.metric r "flowtable.pcb_table_hits_per_msg" "ratio"
      (Record.ratio (float_of_int (pcb1.Pcb.table_hits - pcb0.Pcb.table_hits)) (float_of_int frames))
      ~n:frames;
    let mh = ft1.Ldlp_flowtable.Flowtable.model_hits - ft0.Ldlp_flowtable.Flowtable.model_hits
    and mm = ft1.Ldlp_flowtable.Flowtable.model_misses - ft0.Ldlp_flowtable.Flowtable.model_misses in
    Record.metric r "flowtable.model_miss_ratio" "ratio"
      (Record.ratio (float_of_int mm) (float_of_int (mh + mm)))
      ~n:(mh + mm);
    let ps = Pool.stats ldlp_s.pool in
    Record.metric r "buf.pool_peak_small" "count" (float_of_int ps.Pool.peak_small);
    Record.metric r "buf.pool_peak_cluster" "count" (float_of_int ps.Pool.peak_cluster);
    Record.metric r "buf.in_use_end" "count"
      (float_of_int (ps.Pool.small_in_use + ps.Pool.cluster_in_use));
    Record.metric r "core.msgpool_outstanding" "count"
      (float_of_int (Msg.pool_stats ldlp_s.mp).Msg.p_outstanding);
    Common.traced_stack_metrics r ~tr ~sat_spans:sp ~sat_stats:st ~msgs:traced_frames ~ldlp
      ~gc0 ~gc1 ~gc_msgs:(conv.meter.Common.msgs + frames) ~gen_late
  | _ -> Common.stack_metrics r ~conv ~ldlp);
  Common.setup_metrics r ~setup_times:!setup_times ~hostref:hr
