(* Pieces the workloads share: where output files go, the phase runner of
   the two real stacks, and the metrics every workload reports the same
   way. *)

module Core = Ldlp_core
module Engine = Core.Engine
module Msg = Core.Msg
module Samples = Meas.Samples

let out_dir = ref "."

let tag = ref "run"

let trace_path () = Filename.concat !out_dir (!tag ^ ".trace.json")

(* How a real-stack workload splits --seconds: the saturation phase runs
   for [saturation_share] of it, and the open-loop schedule lasts
   [open_share] of it per discipline. *)
let saturation_share = 0.4

let open_share = 0.25

let burst = 64

let bursts_per_round = 16

(* The open loop runs in chunks of this much schedule time, alternating
   which discipline goes first. *)
let chunk_s = 0.05

let open_chunks seconds = int_of_float (Float.ceil (open_share *. seconds /. chunk_s))

let setup_reps = 7

(* Time [f ()] in seconds, scaled by a fresh host-speed factor. *)
let timed_setup hostref f =
  Meas.Hostref.sample hostref;
  let r, dt = Meas.time_s f in
  (r, dt *. Meas.Hostref.factor hostref)

(* [setup_reps] timed set-ups; the times go to [times] and the last
   instance is returned for measuring. *)
let build hostref ~times setup =
  let last = ref None in
  for _ = 1 to setup_reps do
    let x, dt = timed_setup hostref setup in
    times := dt :: !times;
    last := Some x
  done;
  Option.get !last

(* ---------- the real stacks' phase runner ---------- *)

(* Timing state of one stack instance.  The stack's sinks call
   [delivered] when a message leaves the engine. *)
type meter = {
  mutable msgs : int;  (** Inputs injected in the timed phases. *)
  mutable sat_msgs : int;
  mutable words : int;  (** Minor words inside the timed saturation calls. *)
  burst_ns : Samples.t;  (** Host-normalized, untraced engine. *)
  burst_ns_traced : Samples.t;
  lat : Samples.t;  (** Open loop, host-normalized. *)
  mutable lat_on : bool;
  mutable t_start : int;  (** Clock at the start of the current chunk. *)
  mutable scale : float;  (** Host-speed factor of the current chunk. *)
}

let meter () =
  {
    msgs = 0;
    sat_msgs = 0;
    words = 0;
    burst_ns = Samples.create 1;
    burst_ns_traced = Samples.create 1;
    lat = Samples.create 1;
    lat_on = false;
    t_start = 0;
    scale = 1.0;
  }

(* Nanoseconds from a message's due time (its [arrival], relative to the
   chunk's start) to [now], host-normalized. *)
let[@inline] since_due m (msg : _ Msg.t) now =
  int_of_float (float_of_int (now - m.t_start - int_of_float msg.Msg.arrival) *. m.scale)

let[@inline] delivered m msg =
  if m.lat_on then Samples.add m.lat (since_due m msg (Meas.now_ns ()))

(* One stack under one discipline, as the phase runner sees it. *)
type ('item, 'input) inst = {
  meter : meter;
  eng : 'item Engine.t;
  mutable traced : 'item Engine.t option;  (** LDLP under the span wrappers. *)
  entry : int;  (** The node inputs are injected at, in [eng] and [traced]. *)
  make_msg : 'input -> arrival:float -> 'item Msg.t;
      (** Copies one input into buffers, as a NIC would. *)
  drain : unit -> unit;  (** Untimed work after a burst or a chunk. *)
  service : idle:bool -> unit;  (** Open loop, before each quantum. *)
}

(* Open-loop inputs with their due times, ns from the chunk's start. *)
type 'input batch = { inputs : 'input array; due : int array }

type tracing = { sp : Spans.t; k_step : int; waits : Samples.t }

(* Span wrappers around every handler of [layers] (named [names]); the
   first layer also samples each message's queue wait in [m]'s open
   loop. *)
let trace_layers m ~names ~waits_cap layers =
  let sp = Spans.create ("step" :: List.concat_map (fun l -> [ l; l ^ "-tx" ]) names) in
  Spans.calibrate sp;
  let waits = Samples.create waits_cap in
  let on_start msg t0 = if m.lat_on then Samples.add waits (since_due m msg t0) in
  let wrapped =
    List.mapi
      (fun i (name, l) ->
        let on_start = if i = 0 then on_start else fun _ _ -> () in
        Spans.wrap_layer ~on_start sp ~rx:name ~tx:(name ^ "-tx") l)
      (List.combine names layers)
  in
  ({ sp; k_step = Spans.kind sp "step"; waits }, wrapped)

let set_scale tr scale = Option.iter (fun tr -> tr.sp.Spans.scale <- scale) tr

(* Closed loop, one client: inject a burst of [burst] inputs, run the
   engine to idle, and time exactly that.  [drain] then runs untimed. *)
let run_round x inputs ~eng ~samples ~scale ~tr =
  let m = x.meter in
  for k = 0 to bursts_per_round - 1 do
    let base = k * burst in
    let msgs = Array.init burst (fun i -> x.make_msg inputs.(base + i) ~arrival:0.0) in
    let w0 = Meas.minor_words () in
    let t0 = Meas.now_ns () in
    for i = 0 to burst - 1 do
      Engine.inject eng ~node:x.entry msgs.(i)
    done;
    (match tr with
    | None -> Engine.run eng
    | Some tr -> Spans.run tr.sp tr.k_step eng);
    let t1 = Meas.now_ns () in
    let w1 = Meas.minor_words () in
    Samples.add samples (int_of_float (float_of_int (t1 - t0) *. scale));
    m.words <- m.words + int_of_float (w1 -. w0);
    m.msgs <- m.msgs + burst;
    m.sat_msgs <- m.sat_msgs + burst;
    x.drain ()
  done

(* Saturation for [saturation_share] of [seconds]: rounds of inputs from
   [next_inputs], the disciplines alternating which goes first; under
   tracing the LDLP instance alternates untraced and traced rounds. *)
let saturation hostref ~seconds ~tr ~conv ~ldlp next_inputs =
  let t_end = Meas.now_ns () + int_of_float (saturation_share *. seconds *. 1e9) in
  let round = ref 0 in
  while !round < 2 || Meas.now_ns () < t_end do
    let inputs = next_inputs (burst * bursts_per_round) in
    Meas.Hostref.sample hostref;
    let scale = Meas.Hostref.factor hostref in
    set_scale tr scale;
    let go x =
      match (tr, x.traced) with
      | Some _, Some eng when !round land 1 = 1 ->
        run_round x inputs ~eng ~samples:x.meter.burst_ns_traced ~scale ~tr
      | _ -> run_round x inputs ~eng:x.eng ~samples:x.meter.burst_ns ~scale ~tr:None
    in
    if !round land 1 = 0 then (go conv; go ldlp) else (go ldlp; go conv);
    incr round
  done

(* Open loop over one chunk: inputs are injected when due (as the clock
   reaches them), each copied into buffers as it is injected, and the
   engine advances one quantum at a time between arrivals.  The stack's
   sinks stamp latency with [delivered]. *)
let run_chunk x b ~eng ~tr ~gen_late ~scale =
  let n = Array.length b.inputs in
  let m = x.meter in
  let t_start = Meas.now_ns () in
  m.t_start <- t_start;
  m.scale <- scale;
  m.lat_on <- true;
  let i = ref 0 in
  while !i < n || Engine.pending eng > 0 do
    let now = Meas.now_ns () - t_start in
    while !i < n && b.due.(!i) <= now do
      Samples.add gen_late (now - b.due.(!i));
      Engine.inject eng ~node:x.entry
        (x.make_msg b.inputs.(!i) ~arrival:(float_of_int b.due.(!i)));
      incr i
    done;
    let idle = Engine.pending eng = 0 in
    x.service ~idle;
    if not idle then
      ignore
        (match tr with
        | None -> Engine.step eng
        | Some tr -> Spans.step tr.sp tr.k_step eng)
    else if !i < n then Meas.wait_until (t_start + b.due.(!i))
  done;
  m.lat_on <- false;
  m.msgs <- m.msgs + n;
  x.drain ()

(* The open loop: [chunks] chunks from [chunk], the disciplines
   alternating which goes first; under tracing the LDLP instance runs
   traced throughout.  [capacity] sizes the sample buffers up front.
   Returns how late each input was injected after its due time. *)
let open_loop hostref ~tr ~conv ~ldlp ~chunks ~capacity chunk =
  List.iter (fun x -> Samples.reserve x.meter.lat capacity) [ conv; ldlp ];
  let gen_late = Samples.create (2 * capacity) in
  Gc.compact ();
  for ch = 0 to chunks - 1 do
    let b = chunk ch in
    if Array.length b.inputs > 0 then begin
      Meas.Hostref.sample hostref;
      let scale = Meas.Hostref.factor hostref in
      set_scale tr scale;
      let go x =
        match x.traced with
        | Some eng -> run_chunk x b ~eng ~tr ~gen_late ~scale
        | None -> run_chunk x b ~eng:x.eng ~tr:None ~gen_late ~scale
      in
      if ch land 1 = 0 then (go conv; go ldlp) else (go ldlp; go conv)
    end
  done;
  gen_late

(* Room for every saturation burst, then a compacted heap, so the heap's
   high-water mark does not depend on how many bursts a run completed:
   25,000 bursts of 64 per second is above what either stack reaches. *)
let prepare ~seconds insts =
  let cap = int_of_float (saturation_share *. seconds *. 25_000.0) + 1024 in
  List.iter
    (fun x ->
      Samples.reserve x.meter.burst_ns cap;
      if x.traced <> None then Samples.reserve x.meter.burst_ns_traced cap)
    insts;
  Gc.compact ()

(* ---------- metrics ---------- *)

let median (s : Samples.t) = Meas.quantile (Samples.sorted s) 0.5

(* All-sample latency quantiles, in us. *)
let latency_metrics r ~prefix (lat : Samples.t) =
  let s = Samples.sorted lat and n = Samples.length lat in
  Record.metric r (prefix ^ "lat_p50_us") "us" (Meas.quantile s 0.5 /. 1000.0) ~n;
  Record.metric r (prefix ^ "lat_p99_us") "us" (Meas.quantile s 0.99 /. 1000.0) ~n

(* LDLP over conventional throughput, from the same run's interleaved
   rounds: the real-time answer to "does LDLP win here?".  Derived from
   two bounded metrics, so reported but not bounded itself. *)
let speedup_metric r ~ldlp ~conv ~n = Record.metric r "ldlp_vs_conv" "ratio" (ldlp /. conv) ~n

(* The real stacks' end-to-end metrics: saturation throughput from the
   median burst, open-loop latency, allocation per message. *)
let stack_metrics r ~conv ~ldlp =
  let rate prefix x =
    let v = 1e9 *. float_of_int burst /. median x.meter.burst_ns in
    Record.metric r (prefix ^ "msgs_per_s") "1/s" v ~n:(Samples.length x.meter.burst_ns);
    v
  in
  let l = rate "" ldlp and c = rate "conv." conv in
  speedup_metric r ~ldlp:l ~conv:c ~n:(Samples.length ldlp.meter.burst_ns);
  latency_metrics r ~prefix:"" ldlp.meter.lat;
  latency_metrics r ~prefix:"conv." conv.meter.lat;
  Record.metric r "words_per_msg" "words"
    (float_of_int ldlp.meter.words /. float_of_int ldlp.meter.sat_msgs)
    ~n:ldlp.meter.sat_msgs

(* Engine-level metrics from the traced engine and its step spans. *)
let core_metrics r ~(sp : Spans.totals) ~(st : Engine.stats) ~waits ~msgs =
  let fmsgs = float_of_int msgs in
  Record.metric r "core.sched_ns_per_msg" "ns"
    (Record.ratio (Spans.self_ns sp "step") fmsgs)
    ~n:(Spans.count sp "step");
  Record.metric r "core.quanta_per_msg" "ratio"
    (Record.ratio (float_of_int (Spans.count sp "step")) fmsgs)
    ~n:msgs;
  Record.metric r "core.mean_batch" "msgs"
    (Record.ratio (float_of_int st.Engine.total_batched) (float_of_int st.Engine.batches))
    ~n:st.Engine.batches;
  let switches = List.fold_left (fun a (_, n) -> a + n) 0 st.Engine.per_node_runs in
  Record.metric r "core.node_switches_per_msg" "ratio"
    (Record.ratio (float_of_int switches) (float_of_int st.Engine.injected))
    ~n:st.Engine.injected;
  let w = Samples.sorted waits in
  let n = Array.length w in
  let q p = if n = 0 then 0.0 else Meas.quantile w p /. 1000.0 in
  Record.metric r "core.queue_wait_us_p50" "us" (q 0.5) ~n;
  Record.metric r "core.queue_wait_us_p99" "us" (q 0.99) ~n;
  Record.metric r "core.shed_ratio" "ratio"
    (Record.ratio (float_of_int st.Engine.shed)
       (float_of_int (st.Engine.injected + st.Engine.shed)))
    ~n:(st.Engine.injected + st.Engine.shed)

let gc_metrics r ~(gc0 : Gc.stat) ~(gc1 : Gc.stat) ~msgs =
  Record.metric r "gc.minor_collections_per_kmsg" "count"
    (Record.ratio
       (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections))
       (float_of_int msgs /. 1000.0))
    ~n:msgs;
  Record.metric r "gc.major_collections" "count"
    (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections))

(* [untraced] and [traced] are the same quantity (median ns per unit of
   work) from the plain and the wrapped run. *)
let overhead_metrics r ~gen_late ~untraced ~traced =
  let g = Samples.sorted gen_late in
  let n = Array.length g in
  Record.metric r "bench.gen_late_us_p99" "us"
    (if n = 0 then 0.0 else Meas.quantile g 0.99 /. 1000.0)
    ~n;
  Record.metric r "bench.trace_overhead_pct" "%"
    (100.0 *. Record.ratio (traced -. untraced) untraced)

(* The real stacks' traced-run metrics every stack shares; [sat_spans] and
   [sat_stats] were taken at the end of saturation, [msgs] is the number of
   messages the traced engine saw then. *)
let traced_stack_metrics r ~tr ~sat_spans ~sat_stats ~msgs ~ldlp ~gc0 ~gc1 ~gc_msgs ~gen_late =
  core_metrics r ~sp:sat_spans ~st:sat_stats ~waits:tr.waits ~msgs;
  gc_metrics r ~gc0 ~gc1 ~msgs:gc_msgs;
  overhead_metrics r ~gen_late ~untraced:(median ldlp.meter.burst_ns)
    ~traced:(median ldlp.meter.burst_ns_traced);
  Spans.export_chrome tr.sp (trace_path ())

(* Set-up time: the median of host-normalized repetitions, and the host's
   median speed factor over the run. *)
let setup_metrics r ~setup_times ~hostref =
  Record.metric r "setup_s" "s" (Meas.median_f setup_times) ~n:(List.length setup_times);
  Record.metric r "host.speed_factor" "ratio" (Meas.Hostref.median_factor hostref)
    ~n:(Samples.length hostref.Meas.Hostref.all)
