(* CLI for regenerating every table and figure of the paper at chosen
   fidelity.  `ldlp_repro all` prints everything at quick fidelity;
   `ldlp_repro fig6 --full` runs the paper's 100 layouts x 1 second. *)

open Cmdliner

let params ~full ~runs ~seconds =
  let base = if full then Ldlp_model.Params.paper else Ldlp_model.Params.quick in
  let base =
    match runs with None -> base | Some r -> { base with Ldlp_model.Params.runs = r }
  in
  match seconds with
  | None -> base
  | Some s -> { base with Ldlp_model.Params.seconds = s }

let full_t =
  let doc = "Paper fidelity: 100 random layouts, 1 simulated second per run." in
  Arg.(value & flag & info [ "full" ] ~doc)

let runs_t =
  let doc = "Override the number of random-layout runs to average." in
  Arg.(value & opt (some int) None & info [ "runs" ] ~doc)

let seconds_t =
  let doc = "Override the simulated seconds per run." in
  Arg.(value & opt (some float) None & info [ "seconds" ] ~doc)

let seed_t =
  let doc = "PRNG seed." in
  Arg.(value & opt int 1996 & info [ "seed" ] ~doc)

let domains_t =
  let doc =
    "Worker domains for sweep evaluation.  Defaults to $(b,LDLP_DOMAINS) if \
     set, else the host's recommended domain count.  1 forces the \
     sequential path; any count produces identical output for the same seed."
  in
  let positive_int =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some n -> Error (`Msg (Printf.sprintf "domain count must be >= 1, got %d" n))
      | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt (some positive_int) None & info [ "domains"; "j" ] ~doc)

let out s = print_string s; print_newline ()

let run_table1 seed = out (Ldlp_report.Report.table1 (Ldlp_model.Figures.table1 ~seed ()))

let run_table3 seed = out (Ldlp_report.Report.table3 (Ldlp_model.Figures.table3 ~seed ()))

let run_fig1 seed =
  let phases, funcs = Ldlp_model.Figures.figure1 ~seed () in
  out (Ldlp_report.Report.figure1 phases funcs)

let run_fig5 ?domains params seed =
  out
    (Ldlp_report.Report.fig5
       (Ldlp_model.Figures.rate_sweep ?domains ~params ~seed ()))

let run_fig6 ?domains params seed =
  out
    (Ldlp_report.Report.fig6
       (Ldlp_model.Figures.rate_sweep ?domains ~params ~seed ()))

let run_fig56 ?domains params seed =
  let points = Ldlp_model.Figures.rate_sweep ?domains ~params ~seed () in
  out (Ldlp_report.Report.fig5 points);
  out (Ldlp_report.Report.fig6 points)

let run_fig7 ?domains params seed =
  out
    (Ldlp_report.Report.fig7
       (Ldlp_model.Figures.clock_sweep ?domains ~params ~seed ()))

let run_fig8 () = out (Ldlp_report.Report.fig8 (Ldlp_model.Figures.fig8 ()))

let run_blocking () =
  let p = Ldlp_model.Params.paper in
  let stack =
    {
      Ldlp_core.Blocking.layer_code_bytes =
        List.init p.Ldlp_model.Params.layers (fun _ ->
            p.Ldlp_model.Params.layer_code_bytes);
      layer_data_bytes =
        List.init p.Ldlp_model.Params.layers (fun _ ->
            p.Ldlp_model.Params.layer_data_bytes);
      msg_bytes = p.Ldlp_model.Params.msg_bytes;
      cycles_per_msg =
        p.Ldlp_model.Params.layers
        * Ldlp_model.Params.cycles_per_layer p
            ~msg_bytes:p.Ldlp_model.Params.msg_bytes;
    }
  in
  out
    (Ldlp_report.Report.blocking
       (Ldlp_core.Blocking.recommend Ldlp_core.Blocking.paper_machine stack))

let run_ablations ?domains params seed =
  out
    (Ldlp_report.Report.ablation_batch
       (Ldlp_model.Figures.ablation_batch ?domains ~params ~seed ()));
  out
    (Ldlp_report.Report.ablation_density
       (Ldlp_model.Figures.ablation_density ?domains ~params ~seed ()));
  out
    (Ldlp_report.Report.ablation_linesize
       (Ldlp_model.Figures.ablation_linesize ?domains ~params ~seed ()));
  out (Ldlp_report.Report.ablation_dilution (Ldlp_model.Figures.ablation_dilution ()));
  out (Ldlp_report.Report.ablation_relayout (Ldlp_model.Figures.ablation_relayout ()));
  out
    (Ldlp_report.Report.ablation_associativity
       (Ldlp_model.Figures.ablation_associativity ?domains ~params ~seed ()));
  out
    (Ldlp_report.Report.ablation_prefetch
       (Ldlp_model.Figures.ablation_prefetch ?domains ~params ~seed ()));
  out
    (Ldlp_report.Report.ablation_unified
       (Ldlp_model.Figures.ablation_unified ?domains ~params ~seed ()));
  out
    (Ldlp_report.Report.ablation_layout
       (Ldlp_model.Figures.ablation_layout ?domains ~params ~seed ()))

let run_tcpstack ?domains seed =
  out
    (Ldlp_report.Report.extension_tcp_stack
       (Ldlp_model.Figures.extension_tcp_stack ?domains ~seed ()))

let run_granularity ?domains seed =
  out
    (Ldlp_report.Report.ablation_granularity
       (Ldlp_model.Figures.ablation_granularity ?domains ~seed ()))

let run_txside ?domains params seed =
  out
    (Ldlp_report.Report.extension_txside
       (Ldlp_model.Figures.extension_txside ?domains ~params ~seed ()))

let run_ilp ?domains params seed =
  out
    (Ldlp_report.Report.comparison_ilp
       (Ldlp_model.Figures.comparison_ilp ?domains ~params ~seed ()))

let run_goal ?domains seed =
  out
    (Ldlp_report.Report.extension_goal
       (Ldlp_model.Figures.extension_goal ?domains ~seed ()))

let run_stats ?domains ~json ~rate params seed =
  if json then
    out
      (Ldlp_report.Bench_json.render_stats
         (Ldlp_report.Report.observability_sheets ?domains ~params ~seed ~rate ()))
  else out (Ldlp_report.Report.observability ?domains ~params ~seed ~rate ())

let run_selftest domains =
  let domains = Option.value ~default:2 domains in
  if Ldlp_model.Figures.sweep_selftest ~domains () then
    Printf.printf
      "selftest OK: %d-domain sweeps byte-identical to sequential\n" domains
  else begin
    prerr_endline "selftest FAILED: parallel sweep diverged from sequential";
    exit 1
  end

let run_soak ?domains ~duplex seed count =
  let scs = Ldlp_soak.Soak.scenarios ~seed ~count in
  let reports = Ldlp_soak.Soak.run_all ?domains ~duplex scs in
  if duplex then print_endline "(full-duplex hosts)";
  print_string (Ldlp_soak.Soak.render reports);
  if not (List.for_all Ldlp_soak.Soak.report_ok reports) then begin
    prerr_endline "soak FAILED: see table above";
    exit 1
  end

let run_mesh ?domains ~hosts ~degree ~broadcasts ~json_path seed =
  let module Mesh = Ldlp_mesh.Mesh in
  let base = Mesh.config ~hosts ~degree ~seed ~broadcasts () in
  let pristine = Mesh.compare_spread ?domains base in
  let ccfg = { base with Mesh.plan = Mesh.chaos_plan } in
  let chaos = Mesh.compare_spread ?domains ccfg in
  let storms = Mesh.compare_storm ?domains base in
  print_string (Mesh.render base ~pristine ~chaos ~storms);
  let spread_row tag (s : Mesh.spread) =
    {
      Ldlp_report.Bench_json.mr_hosts = hosts;
      mr_wiring = Mesh.wiring_name s.Mesh.s_wiring ^ tag;
      mr_delivered = s.Mesh.reach;
      mr_p50_s = Ldlp_sim.Hist.percentile s.Mesh.latency 0.50;
      mr_p90_s = Ldlp_sim.Hist.percentile s.Mesh.latency 0.90;
      mr_p99_s = Ldlp_sim.Hist.percentile s.Mesh.latency 0.99;
      mr_max_s = Ldlp_sim.Hist.max s.Mesh.latency;
      mr_mean_s = Ldlp_sim.Hist.mean s.Mesh.latency;
      mr_reloads = s.Mesh.reloads;
      mr_mean_batch = s.Mesh.mean_batch;
      mr_cpu_s = s.Mesh.cpu_seconds;
      mr_ok = s.Mesh.s_conserved && s.Mesh.leak_free;
    }
  in
  let storm_row (t : Mesh.storm) =
    {
      Ldlp_report.Bench_json.ms_hosts = hosts;
      ms_wiring = Mesh.wiring_name t.Mesh.t_wiring;
      ms_pairs = t.Mesh.pairs;
      ms_calls = t.Mesh.calls_requested;
      ms_completed = t.Mesh.calls_completed;
      ms_wire_pairs_per_s = Mesh.storm_wire_rate t;
      ms_cpu_us_per_pair = Mesh.storm_cpu_us_per_pair t;
      ms_cpu_pairs_per_s = Mesh.storm_cpu_rate t;
      ms_ok = t.Mesh.t_conserved && t.Mesh.t_leak_free;
    }
  in
  let json =
    Ldlp_report.Bench_json.render_mesh ~seed ~degree
      ~goal_pairs_per_s:Mesh.goal_pairs_per_sec
      ~spread:
        (List.map (spread_row "") pristine @ List.map (spread_row "+chaos") chaos)
      ~storm:(List.map storm_row storms)
  in
  (match Ldlp_report.Bench_json.parse_mesh json with
  | Ok _ -> ()
  | Error e ->
    prerr_endline ("BENCH_mesh.json failed its own schema check: " ^ e);
    exit 1);
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Printf.printf "\nwrote %s\n" json_path;
  (* Oracles: conservation per wiring and cross-wiring equivalence on the
     chaos run (the interesting one — faults active). *)
  let ok = ref true in
  List.iter
    (fun (s : Mesh.spread) ->
      match Ldlp_check.Mesh_oracle.conservation s with
      | Ok () -> ()
      | Error d ->
        ok := false;
        Format.eprintf "mesh conservation [%s] FAILED: %a@."
          (Mesh.wiring_name s.Mesh.s_wiring)
          Ldlp_check.Mesh_oracle.pp_divergence d)
    (pristine @ chaos);
  (match Ldlp_check.Mesh_oracle.equivalence chaos with
  | Ok () -> ()
  | Error d ->
    ok := false;
    Format.eprintf "mesh equivalence FAILED: %a@."
      Ldlp_check.Mesh_oracle.pp_divergence d);
  List.iter
    (fun (t : Mesh.storm) ->
      if not (t.Mesh.t_conserved && t.Mesh.t_leak_free) then begin
        ok := false;
        Printf.eprintf "mesh storm [%s] conservation/leak FAILED\n"
          (Mesh.wiring_name t.Mesh.t_wiring)
      end)
    storms;
  if not !ok then begin
    prerr_endline "mesh FAILED: see above";
    exit 1
  end

(* The canonical crash plan for the recovery figure, oracle and bench:
   half the hosts die twice inside a 20 ms horizon, outages 2-20 ms —
   long enough to kill attempts mid-flight, short enough that the retry
   budget usually outlives them. *)
let recovery_config ~hosts ~degree ~seed =
  Ldlp_mesh.Mesh.config ~hosts ~degree ~seed
    ~lifecycle:
      (Ldlp_fault.Plan.lifecycle ~victims:0.5 ~episodes:2 ~min_outage:0.002
         ~mean_outage:0.01 ~flap:0.25 ~seed:(seed lxor 0x6c696665) ~hosts
         ~horizon:0.02 ())
    ()

let run_recovery ?domains ~hosts ~degree seed =
  let module Mesh = Ldlp_mesh.Mesh in
  let cfg = recovery_config ~hosts ~degree ~seed in
  let storms = Mesh.compare_storm ?domains ~calls_per_pair:6 cfg in
  print_string (Mesh.render_recovery cfg ~storms);
  match Ldlp_check.Recovery_oracle.run ?domains ~calls_per_pair:6 cfg with
  | Ok n ->
    Printf.printf "recovery oracle: %d checks, no divergence\nrecovery OK\n" n
  | Error d ->
    Format.eprintf "recovery oracle FAILED: %a@."
      Ldlp_check.Recovery_oracle.pp_divergence d;
    exit 1

let run_check seed =
  let fail fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt in
  (* 1. Differential replay: production cache vs the naive LRU oracle. *)
  let steps = 10_000 in
  List.iter
    (fun (name, unified, cfg) ->
      let rng = Ldlp_sim.Rng.create ~seed in
      let ops = Ldlp_check.Cache_oracle.random_ops ~rng cfg steps in
      match Ldlp_check.Cache_oracle.differential ~unified cfg ops with
      | Ok n -> Printf.printf "cache differential %-13s %d steps, no divergence\n" name n
      | Error d ->
        fail "cache differential %s FAILED: %a" name
          Ldlp_check.Cache_oracle.pp_divergence d)
    [
      ("direct-mapped", false, Ldlp_cache.Config.paper_default);
      ("2-way", false, Ldlp_cache.Config.v ~size_bytes:8192 ~line_bytes:32 ~associativity:2 ());
      ("4-way", false, Ldlp_cache.Config.v ~size_bytes:8192 ~line_bytes:32 ~associativity:4 ());
      (* One set, LRU over all lines: the shared Replace machinery's
         LRU-stack geometry (the flowtable's third scheme), covered by the
         same naive reference. *)
      ("full-LRU", false, Ldlp_cache.Config.v ~size_bytes:8192 ~line_bytes:32 ~associativity:256 ());
      (* Code, data and writes through one unified memory system: the
         repeat memo sees ranges of every kind on one cache. *)
      ("unified", true, Ldlp_cache.Config.paper_default);
    ];
  (* 1b. The unified flow table against its naive references: model
     fidelity per scheme, exact delivered state, charge accounting and
     cross-scheme equivalence. *)
  (match Ldlp_check.Flowtable_oracle.run ~seed ~cases:25 with
  | Ok n ->
    Printf.printf
      "flowtable differential: %d random workloads + trace replay, all \
       schemes, no divergence\n"
      n
  | Error e -> fail "flowtable differential FAILED: %s" e);
  (* 2. Scheduler equivalence: Conventional vs LDLP over random stacks. *)
  let cases = 200 in
  (match Ldlp_check.Sched_oracle.run_random ~seed ~cases with
  | Ok n -> Printf.printf "sched equivalence: %d random workloads, no divergence\n" n
  | Error e -> fail "sched equivalence FAILED: %s" e);
  (* 3. LDLP_CHECK invariants on the real model, every discipline. *)
  Ldlp_core.Invariant.set_enabled true;
  let params =
    { Ldlp_model.Params.quick with Ldlp_model.Params.runs = 2; seconds = 0.05 }
  in
  (try
     List.iter
       (fun (name, discipline) ->
         let r =
           Ldlp_model.Simrun.run_avg ~params ~discipline ~seed
             ~make_source:(fun rng ->
               Ldlp_traffic.Source.limit_time
                 (Ldlp_traffic.Poisson.source ~rng ~rate:6000.0 ())
                 params.Ldlp_model.Params.seconds)
             ()
         in
         Printf.printf "invariants hold: %-12s (%d messages)\n" name
           r.Ldlp_model.Simrun.processed)
       [
         ("conventional", Ldlp_model.Simrun.Conventional);
         ("ilp", Ldlp_model.Simrun.Ilp);
         ("ldlp", Ldlp_model.Simrun.Ldlp);
       ]
   with Ldlp_core.Invariant.Violation what -> fail "invariant VIOLATED: %s" what);
  (* 4. Sharded data path: placement invariance over random workloads. *)
  (match Ldlp_check.Shard_oracle.run_random ~seed ~cases:30 with
  | Ok n ->
    Printf.printf
      "shard differential: %d random workloads + echo replay, no divergence\n" n
  | Error e -> fail "shard differential FAILED: %s" e);
  (* 5. Crash/restart recovery: conservation, eventual completion,
     cross-wiring equivalence and shard-merge exactness under a seeded
     host lifecycle plan. *)
  (match
     Ldlp_check.Recovery_oracle.run ~calls_per_pair:6
       (recovery_config ~hosts:16 ~degree:3 ~seed)
   with
  | Ok n -> Printf.printf "recovery oracle: %d checks, no divergence\n" n
  | Error d ->
    fail "recovery oracle FAILED: %a" Ldlp_check.Recovery_oracle.pp_divergence d);
  print_endline "check OK"

let run_flows seed =
  let module Study = Ldlp_flowtable.Study in
  let fail fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt in
  let config = Study.quick in
  let rows =
    List.concat_map
      (fun flows -> Study.run ~config ~flows ~seed ())
      [ 10_000; 100_000 ]
  in
  print_endline (Study.render ~config ~rows ~seed ());
  print_newline ();
  (* Oracle: model fidelity, exactness, charging, cross-scheme laws. *)
  (match Ldlp_check.Flowtable_oracle.run ~seed ~cases:25 with
  | Ok n -> Printf.printf "flowtable differential: %d random workloads OK\n" n
  | Error e -> fail "flowtable differential FAILED: %s" e);
  (* Equivalence and the locality gate at the largest figure point: the
     full 10k/100k/1M bench gate lives in `bench --flows`. *)
  List.iter
    (fun r ->
      let conv =
        List.find
          (fun c ->
            c.Study.r_flows = r.Study.r_flows
            && c.Study.r_scheme = r.Study.r_scheme
            && not c.Study.r_ldlp)
          rows
      in
      if r.Study.r_ldlp then begin
        if r.Study.r_digest <> conv.Study.r_digest then
          fail "flows: delivered-state digest differs (%s, %d flows)"
            (Ldlp_flowtable.Flowtable.scheme_name r.Study.r_scheme)
            r.Study.r_flows;
        if
          r.Study.r_flows >= 100_000
          && r.Study.r_model_misses >= conv.Study.r_model_misses
        then
          fail "flows: LDLP not winning on D-misses (%s, %d flows)"
            (Ldlp_flowtable.Flowtable.scheme_name r.Study.r_scheme)
            r.Study.r_flows
      end)
    rows;
  print_endline "flows OK"

let run_shards seed =
  print_string (Ldlp_shard.Demo.render ~seed);
  print_newline ();
  (* Differential oracle: placement invariance over random workloads. *)
  (match Ldlp_check.Shard_oracle.run_random ~seed ~cases:10 with
  | Ok n ->
    Printf.printf "shard differential: %d random workloads, no divergence\n" n
  | Error e ->
    Printf.eprintf "shard differential FAILED: %s\n" e;
    exit 1);
  (* Sharded call storm: the merged 4-shard result must equal the
     single-domain run, field for field. *)
  let module Mesh = Ldlp_mesh.Mesh in
  let cfg = Mesh.config ~hosts:32 ~degree:4 ~seed () in
  let base = Mesh.run_storm ~wiring:Mesh.Duplex cfg in
  let sh = Mesh.run_storm_sharded ~wiring:Mesh.Duplex ~shards:4 cfg in
  let s = sh.Mesh.ss_storm in
  if s <> base then begin
    Printf.eprintf "sharded storm diverged from the single-domain run\n";
    exit 1
  end;
  Printf.printf
    "sharded storm: %d pairs over %d components, shards=4 equals shards=1 \
     (completed=%d conserved=%b leak_free=%b)\n"
    s.Mesh.pairs sh.Mesh.ss_components s.Mesh.calls_completed s.Mesh.t_conserved
    s.Mesh.t_leak_free;
  print_endline "shards OK"

let run_selfsim seed seconds path =
  let rng = Ldlp_sim.Rng.create ~seed in
  let source =
    Ldlp_traffic.Source.limit_time (Ldlp_traffic.Onoff.source ~rng ()) seconds
  in
  let packets = Ldlp_traffic.Source.to_list source in
  (match path with
  | Some p ->
    Ldlp_traffic.Tracefile.save p packets;
    Printf.printf "wrote %d packets to %s\n" (List.length packets) p
  | None -> ());
  let rate = float_of_int (List.length packets) /. seconds in
  let h = Ldlp_traffic.Hurst.of_packets ~bin:0.05 ~horizon:seconds packets in
  Printf.printf
    "self-similar trace: %d packets over %.0f s (%.0f pkt/s), Hurst ~ %.2f\n"
    (List.length packets) seconds rate h;
  (* Poisson reference at the same rate. *)
  let rng = Ldlp_sim.Rng.create ~seed:(seed + 1) in
  let poisson =
    Ldlp_traffic.Source.to_list
      (Ldlp_traffic.Source.limit_time
         (Ldlp_traffic.Poisson.source ~rng ~rate ())
         seconds)
  in
  Printf.printf "poisson reference at the same rate: Hurst ~ %.2f\n"
    (Ldlp_traffic.Hurst.of_packets ~bin:0.05 ~horizon:seconds poisson)

let run_hurst path =
  let packets = Ldlp_traffic.Tracefile.load path in
  match packets with
  | [] -> print_endline "empty trace"
  | first :: _ ->
    let last = List.nth packets (List.length packets - 1) in
    let horizon = last.Ldlp_traffic.Source.at -. first.Ldlp_traffic.Source.at in
    let shifted =
      List.map
        (fun p ->
          { p with Ldlp_traffic.Source.at = p.Ldlp_traffic.Source.at -. first.Ldlp_traffic.Source.at })
        packets
    in
    Printf.printf "%d packets over %.1f s: Hurst ~ %.2f\n" (List.length packets)
      horizon
      (Ldlp_traffic.Hurst.of_packets ~bin:(horizon /. 1024.0) ~horizon shifted)

let run_all ?domains params seed =
  run_table1 42;
  run_table3 42;
  run_fig1 42;
  run_fig56 ?domains params seed;
  run_fig7 ?domains params seed;
  run_fig8 ();
  run_blocking ();
  run_ablations ?domains params seed;
  run_txside ?domains params seed;
  run_ilp ?domains params seed;
  run_goal ?domains seed;
  run_granularity ?domains seed;
  run_tcpstack ?domains seed

let with_params f =
  Term.(
    const (fun full runs seconds seed domains ->
        f ?domains (params ~full ~runs ~seconds) seed)
    $ full_t $ runs_t $ seconds_t $ seed_t $ domains_t)

let with_seed_domains f =
  Term.(const (fun seed domains -> f ?domains seed) $ seed_t $ domains_t)

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let cmds =
  [
    cmd "table1" "Working-set breakdown of the TCP receive path (Table 1)."
      Term.(const run_table1 $ seed_t);
    cmd "table3" "Cache-line-size sensitivity (Table 3)."
      Term.(const run_table3 $ seed_t);
    cmd "fig1" "Per-phase / per-function working-set map (Figure 1)."
      Term.(const run_fig1 $ seed_t);
    cmd "fig5" "Cache misses per message vs arrival rate (Figure 5)."
      (with_params run_fig5);
    cmd "fig6" "Latency vs arrival rate (Figure 6)." (with_params run_fig6);
    cmd "fig7" "Latency vs CPU clock, self-similar traffic (Figure 7)."
      (with_params run_fig7);
    cmd "fig8" "Checksum cache-effects study (Figure 8)."
      Term.(const run_fig8 $ const ());
    cmd "blocking" "Analytic blocking-factor recommendation (Section 3.2)."
      Term.(const run_blocking $ const ());
    cmd "ablations" "Batch-policy, code-density, line-size and dilution ablations."
      (with_params run_ablations);
    cmd "txside" "Transmit-side LDLP extension experiment."
      (with_params run_txside);
    cmd "ilp" "Conventional vs ILP vs LDLP comparison (Figures 2/3)."
      (with_params run_ilp);
    cmd "granularity" "Layer-granularity / grouping ablation (Section 6)."
      (with_seed_domains run_granularity);
    cmd "tcpstack" "LDLP on the real Table 1 TCP/IP footprints (Section 6)."
      (with_seed_domains run_tcpstack);
    cmd "goal" "Section 1 signalling performance goal check."
      (with_seed_domains run_goal);
    cmd "all" "Everything." (with_params run_all);
    cmd "stats"
      "Per-layer observability counters (cycles, stalls, i/d/w-misses, \
       quanta, queue peaks) for Conventional vs LDLP under Poisson load, \
       merged over the run set.  Deterministic per seed; --json emits the \
       ldlp-stats/1 document."
      Term.(
        const (fun full runs seconds seed domains json rate ->
            run_stats ?domains ~json ~rate (params ~full ~runs ~seconds) seed)
        $ full_t $ runs_t $ seconds_t $ seed_t $ domains_t
        $ Arg.(
            value & flag
            & info [ "json" ]
                ~doc:"Emit the ldlp-stats/1 JSON document instead of text.")
        $ Arg.(
            value
            & opt float 9000.0
            & info [ "rate" ] ~doc:"Poisson arrival rate in messages/second."));
    cmd "check"
      "Differential oracles: replay random access streams through the \
       production cache and a naive LRU reference, assert Conventional and \
       LDLP scheduling are behaviourally equivalent on random stacks, and \
       run the cycle model with LDLP_CHECK invariants enabled."
      Term.(const run_check $ seed_t);
    cmd "selftest"
      "Assert that the parallel sweep engine reproduces the sequential \
       results exactly (same seeds, same tables)."
      Term.(const run_selftest $ domains_t);
    cmd "mesh"
      "Many-host mesh simulation: flood seeded broadcasts over a \
       random-regular topology of full protocol stacks under all three \
       wirings (conventional, LDLP, full-duplex LDLP), print the \
       arrival-latency CDF figure (pristine and chaos-impaired), run the \
       Q.93B call storm against the paper's 10 000 pairs/s goal, write \
       BENCH_mesh.json, and assert the conservation + cross-wiring \
       equivalence oracles.  Nonzero exit on any failure."
      Term.(
        const (fun seed domains hosts degree broadcasts json_path ->
            run_mesh ?domains ~hosts ~degree ~broadcasts ~json_path seed)
        $ seed_t $ domains_t
        $ Arg.(value & opt int 64 & info [ "hosts" ] ~doc:"Number of hosts.")
        $ Arg.(
            value & opt int 4
            & info [ "degree" ] ~doc:"Links per host (regular topology).")
        $ Arg.(
            value & opt int 16
            & info [ "broadcasts" ] ~doc:"Broadcasts to flood through the mesh.")
        $ Arg.(
            value
            & opt string "BENCH_mesh.json"
            & info [ "o"; "json" ] ~doc:"Where to write the mesh JSON document."));
    cmd "recovery"
      "Crash/restart fault injection: run the Q.93B call storm under a \
       seeded host lifecycle plan (crashes, restarts, flapping) with the \
       deterministic retry/backoff/admission engine, print the recovery \
       figure (goodput, retry amplification, time-to-recover), and assert \
       the recovery oracle: extended conservation, eventual completion, \
       cross-wiring equivalence, leak freedom, determinism and shard-merge \
       exactness.  Nonzero exit on any failure."
      Term.(
        const (fun seed domains hosts degree ->
            run_recovery ?domains ~hosts ~degree seed)
        $ seed_t $ domains_t
        $ Arg.(value & opt int 32 & info [ "hosts" ] ~doc:"Number of hosts.")
        $ Arg.(
            value & opt int 4
            & info [ "degree" ] ~doc:"Links per host (regular topology)."));
    cmd "shards"
      "Sharded data path: print the deterministic placement/replay figure, \
       run the cross-shard differential oracle over random workloads, and \
       assert the 4-shard call storm merges to exactly the single-domain \
       result.  Nonzero exit on any failure."
      Term.(const run_shards $ seed_t);
    cmd "flows"
      "Flow-table data-locality study: print the Jain-style misses/lookup \
       figure (conventional vs LDLP batch-sorted lookup per replacement \
       scheme at 10k/100k flows), run the flowtable differential oracle, \
       and assert cross-scheme delivered-state equivalence plus the LDLP \
       D-miss win at 100k flows.  Nonzero exit on any failure."
      Term.(const run_flows $ seed_t);
    cmd "soak"
      "Chaos soak: run the tcpmini echo exchange over seeded impaired \
       links (loss, duplication, corruption, reordering, down episodes, \
       intake shedding) under both scheduling disciplines, asserting \
       byte-stream integrity, mbuf-pool leak freedom and \
       Conventional/LDLP equivalence.  Nonzero exit on any failure."
      Term.(
        const (fun seed domains count duplex -> run_soak ?domains ~duplex seed count)
        $ seed_t $ domains_t
        $ Arg.(
            value & opt int 10
            & info [ "scenarios" ] ~doc:"Number of chaos scenarios to run.")
        $ Arg.(
            value & flag
            & info [ "duplex" ]
                ~doc:
                  "Run each host's receive and transmit sides under one \
                   full-duplex LDLP engine instead of the classic receive \
                   chain."));
    Cmd.v
      (Cmd.info "selfsim"
         ~doc:
           "Generate a self-similar Ethernet-like trace (the Bellcore \
            substitute), report its Hurst estimate, optionally save it.")
      Term.(
        const (fun seed seconds path -> run_selfsim seed seconds path)
        $ seed_t
        $ Arg.(value & opt float 120.0 & info [ "duration" ] ~doc:"Seconds of trace.")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "o"; "output" ] ~doc:"Trace file to write."));
    Cmd.v
      (Cmd.info "hurst" ~doc:"Estimate the Hurst parameter of a saved trace.")
      Term.(
        const run_hurst
        $ Arg.(
            required
            & pos 0 (some string) None
            & info [] ~docv:"TRACE" ~doc:"Trace file (\"time size\" lines)."));
  ]

let () =
  let info =
    Cmd.info "ldlp_repro" ~version:"1.0.0"
      ~doc:
        "Reproduce the tables and figures of 'Speeding up Protocols for \
         Small Messages' (SIGCOMM '96)."
  in
  exit (Cmd.eval (Cmd.group info cmds))
