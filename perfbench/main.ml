(* The benchmark executable: runs one workload at one seed and prints its
   result record as the last line of standard output (run.py checks it and
   prints the verdict).

     main.exe --workload tcp-rx-ack|q93b-storm|fig5-model --seed N
              --seconds S --trace 0|1 [--out DIR]

   With --trace 0 the record carries the end-to-end metrics; with --trace 1
   the same workload runs with the benchmark's span wrappers on and the
   record carries the per-layer metrics, and DIR receives the Chrome Trace
   Event file. *)

(* Every per-layer metric, with its unit.  A workload that does not run a
   layer reports 0 for it: the layer did no work. *)
let per_layer =
  let tcp =
    List.concat_map
      (fun l ->
        [ ("tcpmini." ^ l ^ ".ns_per_msg", "ns"); ("tcpmini." ^ l ^ ".words_per_msg", "words") ])
      [ "ether"; "ip"; "tcp"; "ether-tx"; "ip-tx"; "tcp-tx" ]
  and sig_ =
    List.concat_map
      (fun l ->
        [ ("sigproto." ^ l ^ ".ns_per_msg", "ns"); ("sigproto." ^ l ^ ".words_per_msg", "words") ])
      [ "link"; "sscop"; "q93b"; "call" ]
  in
  tcp
  @ [
      ("tcpmini.fastpath_ratio", "ratio");
      ("tcpmini.acks_per_segment", "ratio");
      ("flowtable.pcb_cache_hit_ratio", "ratio");
      ("flowtable.pcb_table_hits_per_msg", "ratio");
      ("flowtable.model_miss_ratio", "ratio");
    ]
  @ sig_
  @ [
      ("sigproto.tx_per_rx", "ratio");
      ("sigproto.active_calls_peak", "count");
      ("core.sched_ns_per_msg", "ns");
      ("core.quanta_per_msg", "ratio");
      ("core.mean_batch", "msgs");
      ("core.node_switches_per_msg", "ratio");
      ("core.queue_wait_us_p50", "us");
      ("core.queue_wait_us_p99", "us");
      ("core.shed_ratio", "ratio");
      ("buf.pool_peak_small", "count");
      ("buf.pool_peak_cluster", "count");
      ("buf.in_use_end", "count");
      ("core.msgpool_outstanding", "count");
      ("gc.minor_collections_per_kmsg", "count");
      ("gc.major_collections", "count");
      ("cache.refs_per_msg", "refs");
      ("cache.imisses_per_msg", "misses");
      ("cache.dmisses_per_msg", "misses");
      ("model.ns_per_ref", "ns");
      ("traffic.ns_per_pkt", "ns");
      ("bench.gen_late_us_p99", "us");
      ("bench.trace_overhead_pct", "%");
      ("bench.fail_ratio", "ratio");
    ]

let workloads =
  [ ("tcp-rx-ack", Tcp_rx.run); ("q93b-storm", Q93b.run); ("fig5-model", Fig5.run) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref ".bench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--out", Arg.Set_string out, "DIR where the trace file goes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace must be 0 or 1";
    exit 2
  end;
  let obs = Ldlp_obs.Obs.enabled () and check = Ldlp_core.Invariant.enabled () in
  let host =
    Json.Obj
      [
        ("ocaml", Json.Str Sys.ocaml_version);
        ("word_size", Json.Int Sys.word_size);
        ("domains", Json.Int (Domain.recommended_domain_count ()));
        ("ldlp_metrics", Json.Bool obs);
        ("ldlp_check", Json.Bool check);
      ]
  in
  if obs || check then begin
    (* Gated code paths do extra work; no end-to-end number from them. *)
    print_endline (Json.to_string (Json.Obj [ ("host", host) ]));
    prerr_endline "LDLP_METRICS or LDLP_CHECK is on: refusing to report timings";
    exit 3
  end;
  Common.out_dir := !out;
  Common.tag := Printf.sprintf "%s-seed%d" !workload !seed;
  let r = Record.create () in
  run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) r;
  if !trace = 1 then begin
    let failed = List.fold_left (fun a (_, n) -> a + n) 0 r.Record.failures in
    Record.metric r "bench.fail_ratio" "ratio"
      (Record.ratio (float_of_int failed) (float_of_int r.Record.attempted))
      ~n:r.Record.attempted;
    List.iter
      (fun (name, unit_) ->
        if not (Record.has_metric r name) then Record.metric r name unit_ 0.0 ~n:0)
      per_layer
  end;
  let fields =
    match Record.to_json r with Json.Obj kvs -> kvs | _ -> assert false
  in
  print_endline
    (Json.to_string
       (Json.Obj
          ([
             ("workload", Json.Str !workload);
             ("seed", Json.Int !seed);
             ("seconds", Json.Float !seconds);
             ("trace", Json.Int !trace);
             ("host", host);
           ]
          @ fields)))
