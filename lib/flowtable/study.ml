module Rng = Ldlp_sim.Rng
module Flowmix = Ldlp_traffic.Flowmix

type row = {
  r_flows : int;
  r_scheme : Flowtable.scheme;
  r_ldlp : bool;
  r_lookups : int;
  r_found : int;
  r_model_hits : int;
  r_model_misses : int;
  r_model_evictions : int;
  r_digest : int;
}

let misses_per_lookup r =
  if r.r_lookups = 0 then 0.0
  else float_of_int r.r_model_misses /. float_of_int r.r_lookups

type config = {
  slots : int;
  batch : int;
  lookups : int;
  sources : int;
  alpha : float;
  mean_train : float;
}

let quick =
  {
    slots = 256;
    batch = 1024;
    lookups = 16384;
    sources = 512;
    alpha = 1.1;
    mean_train = 8.0;
  }

let bench = { quick with lookups = 65536 }

(* Order-sensitive fold over delivered states: any scheme or discipline
   delivering a different state (or the same states in a different
   arrival position) produces a different digest. *)
let digest_add acc v = (acc * 1000003) + Hashtbl.hash v

let replay table ~ldlp ~batch arrivals =
  Flowtable.flush_cache table;
  Flowtable.reset_stats table;
  let n = Array.length arrivals in
  let digest = ref 0 in
  if not ldlp then
    Array.iter
      (fun k -> digest := digest_add !digest (Flowtable.lookup table k))
      arrivals
  else begin
    let off = ref 0 in
    while !off < n do
      let len = Int.min batch (n - !off) in
      let out = Flowtable.lookup_batch table (Array.sub arrivals !off len) in
      Array.iter (fun v -> digest := digest_add !digest v) out;
      off := !off + len
    done
  end;
  !digest

let run ?(config = quick) ~flows ~seed () =
  let rng = Rng.create ~seed in
  let mix =
    Flowmix.create ~rng
      {
        Flowmix.flows;
        sources = config.sources;
        alpha = config.alpha;
        mean_train = config.mean_train;
      }
  in
  let arrivals = Flowmix.stream mix config.lookups in
  List.concat_map
    (fun scheme ->
      let table =
        Flowtable.create ~scheme ~slots:config.slots
          ~buckets:(Int.min flows 65536) ~equal:Int.equal
          ~name:(Printf.sprintf "study-%s" (Flowtable.scheme_name scheme))
          ()
      in
      (* Every flow is connected before the replay: the study measures
         lookup locality, not connection setup. *)
      for k = 0 to flows - 1 do
        Flowtable.insert table k k
      done;
      List.map
        (fun ldlp ->
          let digest = replay table ~ldlp ~batch:config.batch arrivals in
          let s = Flowtable.stats table in
          {
            r_flows = flows;
            r_scheme = scheme;
            r_ldlp = ldlp;
            r_lookups = s.Flowtable.lookups;
            r_found = s.Flowtable.found;
            r_model_hits = s.Flowtable.model_hits;
            r_model_misses = s.Flowtable.model_misses;
            r_model_evictions = s.Flowtable.model_evictions;
            r_digest = digest;
          })
        [ false; true ])
    Flowtable.all_schemes

let same_scheme a b =
  match (a, b) with
  | Flowtable.Direct, Flowtable.Direct | Lru_stack, Lru_stack -> true
  | Set_assoc x, Set_assoc y -> x = y
  | _ -> false

let render ?(config = quick) ~rows ~seed () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "Flow-table locality: modeled D-misses per lookup, conv vs LDLP \
     batch-sorted\n";
  Buffer.add_string b
    (Printf.sprintf
       "  %d modeled entries/scheme, batch %d, %d lookups, %d sources, \
        Zipf %.1f, seed %d\n\n"
       config.slots config.batch config.lookups config.sources config.alpha
       seed);
  Buffer.add_string b
    "  flows     scheme   conv m/l   ldlp m/l    evic(ldlp)   win\n";
  let flows_list =
    List.sort_uniq compare (List.map (fun r -> r.r_flows) rows)
  in
  List.iter
    (fun flows ->
      List.iter
        (fun scheme ->
          let find ldlp =
            List.find
              (fun r ->
                r.r_flows = flows && same_scheme r.r_scheme scheme
                && r.r_ldlp = ldlp)
              rows
          in
          let conv = find false and ldlp = find true in
          let cm = misses_per_lookup conv and lm = misses_per_lookup ldlp in
          Buffer.add_string b
            (Printf.sprintf
               "  %-9d %-8s %8.4f   %8.4f   %9d   %5.2fx%s\n" flows
               (Flowtable.scheme_name scheme)
               cm lm ldlp.r_model_evictions
               (if lm > 0.0 then cm /. lm else 0.0)
               (if conv.r_digest = ldlp.r_digest then "" else "  DIGEST MISMATCH")))
        Flowtable.all_schemes)
    flows_list;
  Buffer.add_string b
    "\n  Delivered states are scheme- and discipline-independent (exact \
     backing\n\
    \  store); sorting a receive batch by flow slot recovers the temporal\n\
    \  locality that source interleaving destroys in arrival order.";
  Buffer.contents b
