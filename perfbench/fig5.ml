(* Workload fig5-model: the paper's cache model at the Figure 5 under-load
   point (Poisson 9,000 msg/s, paper parameters), under conventional and
   LDLP scheduling.  One request is one Simrun.run_once over a short
   simulated window; its wall time is the latency a user reproducing the
   figure waits for, and simulated messages per wall second is the
   throughput.  Nearly all the time is in the cache simulator
   (Memsys/Cache/Replace): the real codecs do no work here.

   Requests cycle through [nsub] sub-seeds drawn from the seed, so every
   modeled result is computed many times and must come out identical. *)

module Core = Ldlp_core
module Rng = Ldlp_sim.Rng
module Tr = Ldlp_traffic
module Simrun = Ldlp_model.Simrun
module Params = Ldlp_model.Params
module Samples = Meas.Samples

let rate = 9000.0

let sim_seconds = 0.02

let nsub = 16

let params = Params.paper

let source ~rng ~seconds =
  Tr.Source.limit_time
    (Tr.Poisson.source ~rng ~rate ~size:params.Params.msg_bytes ())
    seconds

(* One modeled point: its own layout and arrival stream from [sub]. *)
let request ?probe ?(wrap = Fun.id) ~discipline ~seconds sub =
  let rng = Rng.create ~seed:sub in
  let src = wrap (source ~rng:(Rng.split rng) ~seconds) in
  Simrun.run_once ~params ~discipline ~rng ~source:src ?probe ()

type side = {
  name : string;
  discipline : Simrun.discipline;
  results : Simrun.result option array;  (** First result per sub-seed. *)
  mutable requests : int;
  mutable mismatches : int;
  mutable msgs : int;
  words : float array;
  req_ns : Samples.t;  (** Host-normalized. *)
  req_msgs : Samples.t;  (** Simulated messages per request. *)
  req_ns_traced : Samples.t;
}

let make_side name discipline ~cap =
  {
    name;
    discipline;
    results = Array.make nsub None;
    requests = 0;
    mismatches = 0;
    msgs = 0;
    words = [| 0.0 |];
    req_ns = Samples.create cap;
    req_msgs = Samples.create cap;
    req_ns_traced = Samples.create cap;
  }

let remember s j (res : Simrun.result) =
  match s.results.(j) with
  | None -> s.results.(j) <- Some res
  | Some first -> if compare first res <> 0 then s.mismatches <- s.mismatches + 1

type tracing = {
  sp : Spans.t;
  k_request : int;
  k_pull : int;
  mutable refs : int;
}

let run ~seed ~seconds ~trace (r : Record.t) =
  let seeds =
    let rng = Rng.create ~seed in
    Array.init nsub (fun _ -> 1 + Rng.int rng 0x3FFFFFFF)
  in
  let hr = Meas.Hostref.create () in
  (* Set-up: the per-point construction (layout, memory system, engine)
     with no arrivals, repeated. *)
  let setup_times =
    List.init 21 (fun i ->
        snd
          (Common.timed_setup hr (fun () ->
               request ~discipline:Simrun.Ldlp ~seconds:0.0 seeds.(i mod nsub))))
  in
  (* Sized for any run, so the heap's high-water mark does not depend on
     how many requests a run completed. *)
  let cap = int_of_float (seconds *. 2000.0) + 64 in
  let conv = make_side "conv" Simrun.Conventional ~cap in
  let ldlp = make_side "ldlp" Simrun.Ldlp ~cap in
  let tr =
    if trace then
      let sp = Spans.create [ "request"; "pull" ] in
      Spans.calibrate sp;
      Some { sp; k_request = Spans.kind sp "request"; k_pull = Spans.kind sp "pull"; refs = 0 }
    else None
  in
  let plain s j ~scale =
    let w0 = Meas.minor_words () in
    let t0 = Meas.now_ns () in
    let res = request ~discipline:s.discipline ~seconds:sim_seconds seeds.(j) in
    let t1 = Meas.now_ns () in
    let w1 = Meas.minor_words () in
    Samples.add s.req_ns (int_of_float (float_of_int (t1 - t0) *. scale));
    Samples.add s.req_msgs res.Simrun.processed;
    s.words.(0) <- s.words.(0) +. (w1 -. w0);
    s.msgs <- s.msgs + res.Simrun.processed;
    res
  in
  (* Under tracing: the source's pulls are leaf spans and the memory
     system's probe counts references. *)
  let traced tr s j ~scale =
    let probe ~layer:_ (ev : Ldlp_cache.Memsys.event) =
      match ev with
      | Ldlp_cache.Memsys.Execute _ -> ()
      | Fetch_code _ | Read_data _ | Write_data _ -> tr.refs <- tr.refs + 1
    in
    let wrap src =
      Tr.Source.make (fun () -> Spans.leaf tr.sp tr.k_pull ~id:j Tr.Source.pull src)
    in
    let t0 = Meas.now_ns () in
    let res =
      Spans.parent tr.sp tr.k_request ~id:j
        (fun () -> request ~probe ~wrap ~discipline:s.discipline ~seconds:sim_seconds seeds.(j))
        ()
    in
    let t1 = Meas.now_ns () in
    Samples.add s.req_ns_traced (int_of_float (float_of_int (t1 - t0) *. scale));
    res
  in
  let gc0 = Gc.quick_stat () in
  let t_end = Meas.now_ns () + int_of_float (seconds *. 1e9) in
  let k = ref 0 in
  while !k < 2 * nsub || Meas.now_ns () < t_end do
    let j = !k mod nsub in
    let order = if !k land 1 = 0 then [ conv; ldlp ] else [ ldlp; conv ] in
    Meas.Hostref.sample hr;
    let scale = Meas.Hostref.factor hr in
    Option.iter (fun tr -> tr.sp.Spans.scale <- scale) tr;
    List.iter
      (fun s ->
        let res =
          match tr with
          | Some tr when s == ldlp && !k / nsub mod 2 = 1 -> traced tr s j ~scale
          | _ -> plain s j ~scale
        in
        s.requests <- s.requests + 1;
        remember s j res)
      order;
    incr k
  done;
  let gc1 = Gc.quick_stat () in
  Record.metric r "peak_heap_mb" "MB" (Meas.peak_heap_mb ());
  (* ---------- checks ---------- *)
  let mean_of f s =
    let xs = Array.to_list s.results |> List.filter_map (Option.map f) in
    List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))
  in
  let digest =
    Array.fold_left
      (fun h s ->
        Array.fold_left
          (fun h res ->
            let b = Marshal.to_string (res : Simrun.result option) [] in
            String.fold_left (fun h c -> (h lxor Char.code c) * 0x100000001b3) h b)
          h s.results)
      0x4bf29ce484222325 [| conv; ldlp |]
  in
  List.iter
    (fun s ->
      let p = s.name ^ "." in
      Record.check_int r (p ^ "requests") s.requests;
      Record.check_int r (p ^ "repeat_mismatches") s.mismatches;
      Record.check r (p ^ "imisses_per_msg")
        (Json.Float (mean_of (fun x -> x.Simrun.imisses_per_msg) s));
      Record.check r (p ^ "dmisses_per_msg")
        (Json.Float (mean_of (fun x -> x.Simrun.dmisses_per_msg) s));
      Record.attempted r s.requests;
      Record.failure r (p ^ "repeat_mismatches") s.mismatches)
    [ conv; ldlp ];
  Record.check r "results_digest" (Json.Str (Printf.sprintf "%016x" (digest land max_int)));
  (* ---------- metrics ---------- *)
  if not trace then begin
    (* Simulated messages per wall second, the median over requests. *)
    let rate s (ns : Samples.t) =
      Meas.median_f
        (List.init (Samples.length ns) (fun i ->
             float_of_int s.req_msgs.Samples.a.(i) /. (float_of_int ns.Samples.a.(i) *. 1e-9)))
    in
    List.iter
      (fun (prefix, s) ->
        let n = Samples.length s.req_ns in
        Record.metric r (prefix ^ "msgs_per_s") "1/s" (rate s s.req_ns) ~n;
        Common.latency_metrics r ~prefix s.req_ns)
      [ ("", ldlp); ("conv.", conv) ];
    Common.speedup_metric r ~ldlp:(rate ldlp ldlp.req_ns) ~conv:(rate conv conv.req_ns)
      ~n:ldlp.requests;
    Record.metric r "words_per_msg" "words"
      (ldlp.words.(0) /. float_of_int ldlp.msgs)
      ~n:ldlp.msgs
  end
  else begin
    let tr = Option.get tr in
    let sp = Spans.snapshot tr.sp in
    let traced_msgs =
      (* Each traced request covers one sub-seed's messages. *)
      let per = Array.map (function Some x -> x.Simrun.processed | None -> 0) ldlp.results in
      let n = ref 0 in
      for i = 0 to Samples.length ldlp.req_ns_traced - 1 do
        n := !n + per.(i mod nsub)
      done;
      !n
    in
    let fm = float_of_int traced_msgs in
    Record.metric r "cache.refs_per_msg" "refs" (Record.ratio (float_of_int tr.refs) fm) ~n:traced_msgs;
    Record.metric r "cache.imisses_per_msg" "misses"
      (mean_of (fun x -> x.Simrun.imisses_per_msg) ldlp);
    Record.metric r "cache.dmisses_per_msg" "misses"
      (mean_of (fun x -> x.Simrun.dmisses_per_msg) ldlp);
    Record.metric r "model.ns_per_ref" "ns"
      (Record.ratio (Spans.self_ns sp "request") (float_of_int tr.refs))
      ~n:tr.refs;
    let pulls = Spans.count sp "pull" in
    Record.metric r "traffic.ns_per_pkt" "ns"
      (Record.ratio (Spans.total_ns sp "pull") (float_of_int pulls))
      ~n:pulls;
    Common.gc_metrics r ~gc0 ~gc1 ~msgs:(conv.msgs + ldlp.msgs + traced_msgs);
    Common.overhead_metrics r ~gen_late:(Samples.create 1)
      ~untraced:(Common.median ldlp.req_ns) ~traced:(Common.median ldlp.req_ns_traced);
    Spans.export_chrome tr.sp (Common.trace_path ())
  end;
  Common.setup_metrics r ~setup_times ~hostref:hr
