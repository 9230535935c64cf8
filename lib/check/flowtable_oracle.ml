module Ft = Ldlp_flowtable.Flowtable
module Memsys = Ldlp_cache.Memsys

(* ---------- Naive front-cache model: per-set MRU lists ----------

   Everything is a linear scan over a list — no packed arrays, no
   in-place rotation, no direct-mapped fast path — mirroring
   [Cache_oracle] so the replacement policy is visibly the textbook
   one. *)

type model = {
  sets : int;
  ways : int;
  state : int list array; (* state.(set): resident hashes, MRU first *)
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_evictions : int;
}

let geometry scheme slots =
  match scheme with
  | Ft.Direct -> (slots, 1)
  | Ft.Lru_stack -> (1, slots)
  | Ft.Set_assoc w -> (slots / w, w)

let model_create scheme slots =
  let sets, ways = geometry scheme slots in
  {
    sets;
    ways;
    state = Array.make sets [];
    m_hits = 0;
    m_misses = 0;
    m_evictions = 0;
  }

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let model_access m h =
  let s = h mod m.sets in
  let ways = m.state.(s) in
  if List.mem h ways then begin
    m.m_hits <- m.m_hits + 1;
    m.state.(s) <- h :: List.filter (fun x -> x <> h) ways;
    true
  end
  else begin
    m.m_misses <- m.m_misses + 1;
    if List.length ways >= m.ways then m.m_evictions <- m.m_evictions + 1;
    m.state.(s) <- take m.ways (h :: ways);
    false
  end

let model_flush m = Array.fill m.state 0 m.sets []

(* ---------- Ops ---------- *)

type op =
  | Lookup of int
  | Insert of int * int
  | Remove of int
  | Batch of int array
  | Flush

let pp_op ppf = function
  | Lookup k -> Format.fprintf ppf "lookup %d" k
  | Insert (k, v) -> Format.fprintf ppf "insert %d=%d" k v
  | Remove k -> Format.fprintf ppf "remove %d" k
  | Batch ks -> Format.fprintf ppf "batch[%d]" (Array.length ks)
  | Flush -> Format.fprintf ppf "flush"

let random_ops ~rng ?(key_span = 4096) n =
  let module R = Ldlp_sim.Rng in
  let hot = max 1 (key_span / 16) in
  let key () = if R.int rng 100 < 75 then R.int rng hot else R.int rng key_span in
  List.init n (fun _ ->
      match R.int rng 100 with
      | r when r < 45 -> Lookup (key ())
      | r when r < 65 -> Insert (key (), R.int rng 1_000_000)
      | r when r < 75 -> Remove (key ())
      | r when r < 97 ->
        Batch (Array.init (1 + R.int rng 64) (fun _ -> key ()))
      | _ -> Flush)

(* ---------- Differential replay ---------- *)

(* The specified batch processing order: (set, slot hash, arrival). *)
let batch_order ~sets keys =
  let hs = Array.map Hashtbl.hash keys in
  let order = Array.init (Array.length keys) (fun i -> i) in
  Array.sort
    (fun a b ->
      let sa = hs.(a) mod sets and sb = hs.(b) mod sets in
      if sa <> sb then compare sa sb
      else if hs.(a) <> hs.(b) then compare hs.(a) hs.(b)
      else compare a b)
    order;
  (hs, order)

let digest_add acc v = (acc * 1000003) + Hashtbl.hash v

let differential ~scheme ~slots ops =
  let memsys = Memsys.create () in
  let probed = ref 0 in
  Memsys.set_probe memsys
    (Some
       (function
       | Memsys.Read_data { misses; _ } -> probed := !probed + misses
       | _ -> ()));
  let subject =
    Ft.create ~scheme ~slots ~memsys ~equal:Int.equal
      ~name:(Printf.sprintf "oracle-%s" (Ft.scheme_name scheme))
      ()
  in
  let model = model_create scheme slots in
  let reference : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let digest = ref 0 in
  let fail step op detail =
    Error
      (Format.asprintf "%s/%d slots, step %d (%a): %s" (Ft.scheme_name scheme)
         slots step pp_op op detail)
  in
  let check_counters step op =
    let s = Ft.stats subject in
    if s.Ft.model_hits <> model.m_hits || s.Ft.model_misses <> model.m_misses
    then
      fail step op
        (Printf.sprintf "model counters: table %d/%d, oracle %d/%d"
           s.Ft.model_hits s.Ft.model_misses model.m_hits model.m_misses)
    else if s.Ft.model_evictions <> model.m_evictions then
      fail step op
        (Printf.sprintf "evictions: table %d, oracle %d" s.Ft.model_evictions
           model.m_evictions)
    else if s.Ft.found + s.Ft.missing <> s.Ft.lookups then
      fail step op "conservation: found + missing <> lookups"
    else if
      s.Ft.model_hits + s.Ft.model_misses
      <> s.Ft.lookups + s.Ft.inserts + s.Ft.removes
    then fail step op "conservation: model accesses <> guarded ops"
    else if Ft.length subject <> Hashtbl.length reference then
      fail step op
        (Printf.sprintf "entries: table %d, reference %d" (Ft.length subject)
           (Hashtbl.length reference))
    else Ok ()
  in
  let lookup_agrees step op k got =
    let want = Hashtbl.find_opt reference k in
    digest := digest_add !digest got;
    if got <> want then
      fail step op
        (Printf.sprintf "delivered state for key %d: table %s, reference %s" k
           (match got with Some v -> string_of_int v | None -> "none")
           (match want with Some v -> string_of_int v | None -> "none"))
    else Ok ()
  in
  let rec go step = function
    | [] ->
      let s = Ft.stats subject in
      if !probed <> s.Ft.model_misses then
        fail step Flush
          (Printf.sprintf "probe saw %d misses, stats %d" !probed
             s.Ft.model_misses)
      else if (Memsys.counters memsys).Memsys.dcache_misses <> s.Ft.model_misses
      then fail step Flush "memsys dcache_misses <> model_misses"
      else Ok !digest
    | op :: rest -> (
      let outcome =
        match op with
        | Lookup k ->
          let got = Ft.lookup subject k in
          ignore (model_access model (Hashtbl.hash k));
          lookup_agrees step op k got
        | Insert (k, v) ->
          Ft.insert subject k v;
          ignore (model_access model (Hashtbl.hash k));
          Hashtbl.replace reference k v;
          Ok ()
        | Remove k ->
          Ft.remove subject k;
          ignore (model_access model (Hashtbl.hash k));
          Hashtbl.remove reference k;
          Ok ()
        | Batch keys ->
          let out = Ft.lookup_batch subject keys in
          let hs, order = batch_order ~sets:model.sets keys in
          Array.iter (fun i -> ignore (model_access model hs.(i))) order;
          let rec each i =
            if i >= Array.length keys then Ok ()
            else
              match lookup_agrees step op keys.(i) out.(i) with
              | Error _ as e -> e
              | Ok () -> each (i + 1)
          in
          each 0
        | Flush ->
          Ft.flush_cache subject;
          model_flush model;
          Ok ()
      in
      match outcome with
      | Error _ as e -> e
      | Ok () -> (
        match check_counters step op with
        | Error _ as e -> e
        | Ok () -> go (step + 1) rest))
  in
  go 1 ops

(* ---------- Trace-driven cross-discipline equivalence ---------- *)

let trace_equivalence ~seed ~scheme =
  let module R = Ldlp_sim.Rng in
  let flows = 20_000 and lookups = 8192 and batch = 512 in
  let replay ldlp =
    let rng = R.create ~seed in
    let mix =
      Ldlp_traffic.Flowmix.create ~rng (Ldlp_traffic.Flowmix.default ~flows)
    in
    let arrivals = Ldlp_traffic.Flowmix.stream mix lookups in
    let t =
      Ft.create ~scheme ~slots:256 ~equal:Int.equal
        ~name:(Printf.sprintf "trace-%s" (Ft.scheme_name scheme))
        ()
    in
    for k = 0 to flows - 1 do
      Ft.insert t k (k * 7)
    done;
    Ft.flush_cache t;
    Ft.reset_stats t;
    let digest = ref 0 in
    if ldlp then begin
      let off = ref 0 in
      while !off < lookups do
        let len = min batch (lookups - !off) in
        Array.iter
          (fun v -> digest := digest_add !digest v)
          (Ft.lookup_batch t (Array.sub arrivals !off len));
        off := !off + len
      done
    end
    else
      Array.iter (fun k -> digest := digest_add !digest (Ft.lookup t k)) arrivals;
    let s = Ft.stats t in
    (!digest, s.Ft.found, s.Ft.model_hits + s.Ft.model_misses)
  in
  let dc, fc, ac = replay false and dl, fl, al = replay true in
  if dc <> dl then
    Error
      (Printf.sprintf "%s: trace digests differ conv vs ldlp"
         (Ft.scheme_name scheme))
  else if fc <> fl || fc <> lookups then
    Error (Printf.sprintf "%s: trace found %d/%d" (Ft.scheme_name scheme) fc fl)
  else if ac <> lookups || al <> lookups then
    Error (Printf.sprintf "%s: model access conservation" (Ft.scheme_name scheme))
  else Ok dc

let run ~seed ~cases =
  let module R = Ldlp_sim.Rng in
  let rng = R.create ~seed in
  let slots_choices = [| 64; 256; 1024 |] in
  let rec cases_loop case =
    if case > cases then Ok ()
    else begin
      let slots = slots_choices.(R.int rng (Array.length slots_choices)) in
      let ops = random_ops ~rng (500 + R.int rng 1500) in
      let rec schemes_loop digests = function
        | [] -> (
          match digests with
          | d :: rest when List.for_all (fun d' -> d' = d) rest -> Ok ()
          | _ -> Error (Printf.sprintf "case %d: cross-scheme digests differ" case))
        | scheme :: rest -> (
          match differential ~scheme ~slots ops with
          | Error e -> Error (Printf.sprintf "case %d: %s" case e)
          | Ok digest -> schemes_loop (digest :: digests) rest)
      in
      match schemes_loop [] Ft.all_schemes with
      | Error _ as e -> e
      | Ok () -> cases_loop (case + 1)
    end
  in
  match cases_loop 1 with
  | Error _ as e -> e
  | Ok () -> (
    (* Trace-driven pass: same delivered stream per scheme and across
       schemes, conv vs LDLP-batched. *)
    let rec traces digests = function
      | [] -> (
        match digests with
        | d :: rest when List.for_all (fun d' -> d' = d) rest -> Ok cases
        | _ -> Error "trace: cross-scheme digests differ")
      | scheme :: rest -> (
        match trace_equivalence ~seed ~scheme with
        | Error _ as e -> e
        | Ok d -> traces (d :: digests) rest)
    in
    traces [] Ft.all_schemes)
