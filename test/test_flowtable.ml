(* Tests for the unified flow table: QCheck laws over the exact backing
   store, the LDLP batch path, the seeded eviction stream, and the
   per-domain ownership tripwire. *)

module Ft = Ldlp_flowtable.Flowtable

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let schemes = Ft.all_schemes

(* Interpret integer triples as table ops against a plain Hashtbl
   reference, failing on any delivered-state divergence; returns the
   table, the reference and an order-sensitive digest of everything the
   lookups delivered. *)
let interp ?(slots = 64) scheme ops =
  let t = Ft.create ~scheme ~slots ~equal:Int.equal ~name:"qcheck" () in
  let reference : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let digest = ref 0 in
  List.iter
    (fun (tag, k, v) ->
      let k = k land 1023 in
      match tag land 3 with
      | 0 ->
        Ft.insert t k v;
        Hashtbl.replace reference k v
      | 1 ->
        Ft.remove t k;
        Hashtbl.remove reference k
      | _ ->
        let got = Ft.lookup t k in
        if got <> Hashtbl.find_opt reference k then
          QCheck.Test.fail_reportf "%s: lookup %d diverges from reference"
            (Ft.scheme_name scheme) k;
        digest := (!digest * 1000003) + Hashtbl.hash got)
    ops;
  (t, reference, !digest)

let op_triple = QCheck.(triple small_int small_int small_int)

(* Insert/lookup/remove roundtrips are exact under every scheme, and the
   stat ledger obeys its conservation laws whatever the op mix. *)
let prop_roundtrip =
  QCheck.Test.make ~name:"exact roundtrips + conservation, every scheme"
    ~count:100
    QCheck.(list op_triple)
    (fun ops ->
      List.for_all
        (fun scheme ->
          let t, reference, _ = interp scheme ops in
          let s = Ft.stats t in
          Ft.length t = Hashtbl.length reference
          && s.Ft.found + s.Ft.missing = s.Ft.lookups
          && s.Ft.model_hits + s.Ft.model_misses
             = s.Ft.lookups + s.Ft.inserts + s.Ft.removes
          && s.Ft.model_evictions <= s.Ft.model_misses)
        schemes)

(* The front cache is a cost model only: delivered states are identical
   across schemes (exactness by construction). *)
let prop_scheme_independent =
  QCheck.Test.make ~name:"delivered states are scheme-independent" ~count:100
    QCheck.(list op_triple)
    (fun ops ->
      match
        List.map
          (fun scheme ->
            let _, _, d = interp scheme ops in
            d)
          schemes
      with
      | [] -> true
      | d :: rest -> List.for_all (( = ) d) rest)

(* The LDLP batch path reorders only the modeled accesses, never the
   delivered results. *)
let prop_batch_matches_unsorted =
  QCheck.Test.make ~name:"batch-sorted lookup = one-at-a-time lookup"
    ~count:100
    QCheck.(pair (list op_triple) (list small_int))
    (fun (ops, keys) ->
      let keys = Array.of_list (List.map (fun k -> k land 1023) keys) in
      List.for_all
        (fun scheme ->
          let t, _, _ = interp scheme ops in
          Ft.lookup_batch t keys = Array.map (fun k -> Ft.lookup t k) keys)
        schemes)

(* A seeded workload produces the same modeled hit/miss/eviction counts
   on every replay — the eviction stream is a function of the seed. *)
let eviction_counts ~seed scheme =
  let module R = Ldlp_sim.Rng in
  let rng = R.create ~seed in
  let t = Ft.create ~scheme ~slots:64 ~equal:Int.equal ~name:"evict" () in
  for k = 0 to 255 do
    Ft.insert t k (k * 7)
  done;
  Ft.flush_cache t;
  Ft.reset_stats t;
  for _ = 1 to 2048 do
    ignore (Ft.lookup t (R.int rng 256))
  done;
  let s = Ft.stats t in
  (s.Ft.model_hits, s.Ft.model_misses, s.Ft.model_evictions)

let prop_seeded_eviction =
  QCheck.Test.make ~name:"eviction stream is seed-deterministic" ~count:50
    QCheck.small_int (fun seed ->
      List.for_all
        (fun scheme ->
          let a = eviction_counts ~seed scheme in
          let b = eviction_counts ~seed scheme in
          let _, misses, evictions = a in
          (* 256 hot keys over 64 modeled slots must actually evict. *)
          a = b && misses > 0 && evictions > 0)
        schemes)

(* ---------- Domains ---------- *)

(* Each worker builds its own domain-local table (the shard discipline)
   and replays a per-index seeded workload; the merged result must not
   depend on the worker count. *)
let domain_run ~domains =
  Ldlp_par.Pool.map ~domains
    (fun i ->
      let module R = Ldlp_sim.Rng in
      let rng = R.create ~seed:(41 + i) in
      let t =
        Ft.create ~slots:128 ~equal:Int.equal
          ~name:(Printf.sprintf "dom-%d" i)
          ()
      in
      let digest = ref 0 in
      for k = 0 to 511 do
        Ft.insert t k (k * 3)
      done;
      for _ = 1 to 4096 do
        let k = R.int rng 768 in
        digest := (!digest * 1000003) + Hashtbl.hash (Ft.lookup t k)
      done;
      let s = Ft.stats t in
      (!digest, s.Ft.model_hits, s.Ft.model_misses, s.Ft.model_evictions))
    (List.init 6 Fun.id)

let test_domains_identical () =
  check "1 domain = 3 domains" true
    (domain_run ~domains:1 = domain_run ~domains:3)

(* Cross-domain access to a claimed table raises — the same tripwire
   discipline as Msg pools, so a shard can never silently read another
   shard's flow state. *)
let test_ownership_tripwire () =
  let t : (int, int) Ft.t =
    Ft.create ~equal:Int.equal ~name:"tripwire" ()
  in
  Ft.insert t 1 10;
  check "first guarded access claims an owner" true (Ft.owner t <> None);
  (match
     Domain.join
       (Domain.spawn (fun () ->
            match Ft.lookup t 1 with
            | _ -> Error "cross-domain access did not raise"
            | exception Invalid_argument _ -> Ok ()))
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check "owner still works after the tripwire fired" true
    (Ft.lookup t 1 = Some 10)

(* ---------- Backing-store layout = Stdlib.Hashtbl ---------- *)

(* One key type for the layout property: how to build key [i] (injective
   in [i]) and the monomorphic equality the table is created with. *)
type 'k keyspec = {
  label : string;
  key_of : int -> 'k;
  equal : 'k -> 'k -> bool;
}

let int_keys = { label = "int"; key_of = Fun.id; equal = Int.equal }

let string_keys =
  {
    label = "string";
    key_of = Printf.sprintf "host-%d.example";
    equal = String.equal;
  }

(* Pcb-shaped (local port, remote ip, remote port) keys under a custom
   equality, as [Ldlp_tcpmini.Pcb] creates its table. *)
let pcb_keys =
  {
    label = "pcb";
    key_of =
      (fun i ->
        ( 80 + (i land 3),
          Int32.add 0x0A000000l (Int32.of_int (i lsr 2)),
          1024 + (i mod 7) ));
    equal =
      (fun ((p, ip, rp) : int * int32 * int) (p', ip', rp') ->
        p = p' && Int32.equal ip ip' && rp = rp');
  }

(* Whether [k] sits strictly inside its Hashtbl bucket (an entry before
   and after it): [fold] walks the buckets in index order, each from its
   head. *)
let mid_bucket reference k =
  let nb = (Hashtbl.stats reference).Hashtbl.num_buckets in
  let b = Hashtbl.hash k land (nb - 1) in
  let bucket =
    List.filter
      (fun k' -> Hashtbl.hash k' land (nb - 1) = b)
      (List.rev (Hashtbl.fold (fun k' _ acc -> k' :: acc) reference []))
  in
  let rec index i = function
    | [] -> -1
    | k' :: rest -> if k' = k then i else index (i + 1) rest
  in
  let i = index 0 bucket in
  i > 0 && i < List.length bucket - 1

(* Replay [ops] (kind, key index) on a flow table and on a Stdlib.Hashtbl
   created with the same [buckets], after enough distinct inserts to
   force three doublings.  Lookups, [length] and the [iter]/[fold] visit
   orders must agree after every op, and an insert must change what
   [lookup] returns (the stored [Some] is refreshed).  Returns how many
   removes unlinked an entry from the middle of its bucket. *)
let replay_layout spec ~buckets ops =
  let t = Ft.create ~buckets ~equal:spec.equal ~name:"layout" () in
  let reference = Hashtbl.create ~random:false buckets in
  let fail fmt =
    QCheck.Test.fail_reportf
      ("%s keys, buckets %d: " ^^ fmt)
      spec.label buckets
  in
  let pairs_of_iter iter =
    let acc = ref [] in
    iter (fun k v -> acc := (k, v) :: !acc);
    !acc
  in
  let cons k v acc = (k, v) :: acc in
  let same_state () =
    if Ft.length t <> Hashtbl.length reference then fail "length diverges";
    if
      pairs_of_iter (fun f -> Ft.iter f t)
      <> pairs_of_iter (fun f -> Hashtbl.iter f reference)
    then fail "iter order diverges";
    if Ft.fold cons t [] <> Hashtbl.fold cons reference [] then
      fail "fold order diverges"
  in
  let initial = (Hashtbl.stats reference).Hashtbl.num_buckets in
  let warm = (8 * initial) + 1 in
  let middle_removes = ref 0 in
  let step n (kind, i) =
    let k = spec.key_of i in
    (match kind with
    | 0 | 1 | 2 ->
      (* Values are op numbers, so a replace always changes the value. *)
      Ft.insert t k n;
      Hashtbl.replace reference k n;
      if Ft.lookup t k <> Some n then
        fail "insert did not refresh the stored value"
    | 3 ->
      if Hashtbl.mem reference k && mid_bucket reference k then
        incr middle_removes;
      Ft.remove t k;
      Hashtbl.remove reference k
    | _ ->
      if Ft.lookup t k <> Hashtbl.find_opt reference k then
        fail "lookup diverges");
    same_state ()
  in
  List.iteri (fun n i -> step n (0, i)) (List.init warm Fun.id);
  if (Hashtbl.stats reference).Hashtbl.num_buckets < 8 * initial then
    fail "fewer than three resizes";
  List.iteri (fun n (kind, i) -> step (warm + n) (kind, i mod (warm + 64))) ops;
  !middle_removes

let prop_layout_matches_hashtbl =
  QCheck.Test.make
    ~name:"backing store = Stdlib.Hashtbl (lookups, length, order)" ~count:20
    QCheck.(
      pair (oneofl [ 1; 16; 24 ])
        (list_of_size (Gen.return 400) (pair (int_bound 4) (int_bound 1023))))
    (fun (buckets, ops) ->
      let middle =
        replay_layout int_keys ~buckets ops
        + replay_layout string_keys ~buckets ops
        + replay_layout pcb_keys ~buckets ops
      in
      if middle = 0 then
        QCheck.Test.fail_report "no remove from the middle of a bucket";
      true)

(* ---------- Allocation pins ---------- *)

(* Minor words [f] allocates, less what the two [Gc.minor_words] probes
   cost on their own. *)
let minor_words_of f =
  let probe g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  probe f -. probe ignore

let test_lookup_allocates_nothing () =
  let t = Ft.create ~equal:Int.equal ~name:"alloc" () in
  for k = 0 to 255 do
    Ft.insert t k (k * 3)
  done;
  let lookups k =
    minor_words_of (fun () ->
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Ft.lookup t k))
        done)
  in
  Alcotest.(check (float 0.)) "1000 hits" 0. (lookups 17);
  Alcotest.(check (float 0.)) "1000 misses" 0. (lookups 4096)

(* ---------- Units ---------- *)

let test_create_validation () =
  Alcotest.check_raises "non-pow2 slots"
    (Invalid_argument "Flowtable.create: slots must be a power of two")
    (fun () ->
      ignore
        (Ft.create ~slots:1000 ~equal:Int.equal ~name:"bad" ()
          : (int, int) Ft.t));
  Alcotest.check_raises "indivisible associativity"
    (Invalid_argument "Flowtable.create: slots not divisible by associativity")
    (fun () ->
      ignore
        (Ft.create ~scheme:(Ft.Set_assoc 3) ~slots:64 ~equal:Int.equal
          ~name:"bad" ()
          : (int, int) Ft.t))

let test_flush_preserves_backing () =
  let t = Ft.create ~equal:Int.equal ~name:"flush" () in
  Ft.insert t 5 50;
  Ft.flush_cache t;
  check "backing survives a cache flush" true (Ft.lookup t 5 = Some 50);
  let s = Ft.stats t in
  (* Insert missed cold, then the post-flush lookup missed again. *)
  checki "both guarded ops modeled as misses" 2 s.Ft.model_misses

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "flush keeps backing store" `Quick
      test_flush_preserves_backing;
    Alcotest.test_case "ownership tripwire" `Quick test_ownership_tripwire;
    Alcotest.test_case "1-domain = 3-domain replay" `Quick
      test_domains_identical;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_scheme_independent;
    QCheck_alcotest.to_alcotest prop_batch_matches_unsorted;
    QCheck_alcotest.to_alcotest prop_seeded_eviction;
    QCheck_alcotest.to_alcotest prop_layout_matches_hashtbl;
    Alcotest.test_case "lookup allocates nothing" `Quick
      test_lookup_allocates_nothing;
  ]
