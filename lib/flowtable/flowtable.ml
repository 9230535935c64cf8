module Memsys = Ldlp_cache.Memsys
module Replace = Ldlp_cache.Replace

type scheme = Direct | Set_assoc of int | Lru_stack

let scheme_name = function
  | Direct -> "direct"
  | Set_assoc w -> Printf.sprintf "assoc%d" w
  | Lru_stack -> "lru"

let all_schemes = [ Direct; Set_assoc 4; Lru_stack ]

type stats = {
  lookups : int;
  found : int;
  missing : int;
  model_hits : int;
  model_misses : int;
  model_evictions : int;
  inserts : int;
  removes : int;
}

(* The exact backing store: [Stdlib.Hashtbl]'s bucket layout (so [iter]
   and [fold] visit entries in the same order as a [Hashtbl] driven with
   the same ops), with the key hash computed once per operation and
   passed in, keys compared with the table's monomorphic [equal], and
   each entry holding the [Some v] that [lookup] returns, so a lookup
   allocates nothing. *)
type ('k, 'v) bucket =
  | Empty
  | Cons of {
      mutable key : 'k;
      mutable hit : 'v option; (* always [Some]: what [lookup] returns *)
      mutable next : ('k, 'v) bucket;
    }

type ('k, 'v) t = {
  tbl_name : string;
  tbl_scheme : scheme;
  tbl_slots : int;
  entry_bytes : int;
  set_mask : int; (* sets - 1, for the batch sort key *)
  rep : Replace.t; (* front-cache model over slot hashes *)
  equal : 'k -> 'k -> bool;
  mutable data : ('k, 'v) bucket array; (* exact; never depends on rep *)
  mutable size : int;
  mutable memsys : Memsys.t option;
  mutable owner : int; (* -1 = unclaimed; else domain id *)
  mutable lookups : int;
  mutable found : int;
  mutable missing : int;
  mutable model_hits : int;
  mutable model_misses : int;
  mutable inserts : int;
  mutable removes : int;
  mutable ev_base : int; (* Replace eviction count at last reset *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let geometry scheme slots =
  match scheme with
  | Direct -> (slots, 1)
  | Lru_stack -> (1, slots)
  | Set_assoc w ->
    if w < 1 then invalid_arg "Flowtable.create: associativity must be >= 1";
    if slots mod w <> 0 then
      invalid_arg "Flowtable.create: slots not divisible by associativity";
    (slots / w, w)

(* [Stdlib.Hashtbl.create]'s initial bucket count. *)
let rec power_2_above x n =
  if x >= n then x
  else if x * 2 > Sys.max_array_length then x
  else power_2_above (x * 2) n

let create ?(scheme = Set_assoc 4) ?(slots = 1024) ?(entry_bytes = 64)
    ?(buckets = 64) ?memsys ~equal ~name () =
  if not (is_pow2 slots) then
    invalid_arg "Flowtable.create: slots must be a power of two";
  if entry_bytes <= 0 then
    invalid_arg "Flowtable.create: entry_bytes must be positive";
  let sets, ways = geometry scheme slots in
  if not (is_pow2 sets) then
    invalid_arg "Flowtable.create: sets must be a power of two";
  {
    tbl_name = name;
    tbl_scheme = scheme;
    tbl_slots = slots;
    entry_bytes;
    set_mask = sets - 1;
    rep = Replace.create ~sets ~ways;
    equal;
    data = Array.make (power_2_above 16 buckets) Empty;
    size = 0;
    memsys;
    owner = -1;
    lookups = 0;
    found = 0;
    missing = 0;
    model_hits = 0;
    model_misses = 0;
    inserts = 0;
    removes = 0;
    ev_base = 0;
  }

let name t = t.tbl_name

let scheme t = t.tbl_scheme

let slots t = t.tbl_slots

let attach_memsys t m = t.memsys <- m

(* Domain-local tripwire, same discipline as [Ldlp_core.Msg] pools: the
   first guarded access claims the table (per-shard tables are created
   inside their worker domain, so the claim lands on the owning shard). *)
let guard t =
  let me = (Domain.self () :> int) in
  if t.owner < 0 then t.owner <- me
  else if t.owner <> me then
    invalid_arg
      (Printf.sprintf
         "Flowtable %s: owned by domain %d, accessed from domain %d"
         t.tbl_name t.owner me)

(* One modeled reference to the flow's table entry.  [Hashtbl.hash] is the
   slot hash: distinct flows colliding on a hash alias in the model is the
   analogue of address aliasing in a real D-cache, and costs nothing for
   correctness (the backing store is exact). *)
let model_access t h =
  if Replace.access t.rep h then t.model_hits <- t.model_hits + 1
  else begin
    t.model_misses <- t.model_misses + 1;
    match t.memsys with
    | None -> ()
    | Some m ->
      Memsys.charge_read m ~addr:(h * t.entry_bytes) ~len:t.entry_bytes
        ~misses:1
  end

let bucket_index t h = h land (Array.length t.data - 1)

let rec find_in equal k = function
  | Empty -> None
  | Cons c -> if equal c.key k then c.hit else find_in equal k c.next

let lookup_hashed t h k =
  t.lookups <- t.lookups + 1;
  model_access t h;
  match find_in t.equal k t.data.(bucket_index t h) with
  | Some _ as r ->
    t.found <- t.found + 1;
    r
  | None ->
    t.missing <- t.missing + 1;
    None

let lookup t k =
  guard t;
  lookup_hashed t (Hashtbl.hash k) k

(* Double the bucket array, keeping each new bucket's entries in their
   old relative order ([Stdlib.Hashtbl]'s resize).  Entries are copied,
   not relinked, so an [iter] or [fold] that inserts keeps walking the
   array it started on. *)
let resize t =
  let nsize = 2 * Array.length t.data in
  if nsize < Sys.max_array_length then begin
    let ndata = Array.make nsize Empty and tails = Array.make nsize Empty in
    let rec move = function
      | Empty -> ()
      | Cons { key; hit; next } ->
        let cell = Cons { key; hit; next = Empty } in
        let i = Hashtbl.hash key land (nsize - 1) in
        (match tails.(i) with
        | Empty -> ndata.(i) <- cell
        | Cons tail -> tail.next <- cell);
        tails.(i) <- cell;
        move next
    in
    Array.iter move t.data;
    t.data <- ndata
  end

let rec replace_in equal k v = function
  | Empty -> false
  | Cons c ->
    if equal c.key k then begin
      c.key <- k;
      c.hit <- Some v;
      true
    end
    else replace_in equal k v c.next

let insert t k v =
  guard t;
  t.inserts <- t.inserts + 1;
  let h = Hashtbl.hash k in
  model_access t h;
  let i = bucket_index t h in
  let l = t.data.(i) in
  if not (replace_in t.equal k v l) then begin
    t.data.(i) <- Cons { key = k; hit = Some v; next = l };
    t.size <- t.size + 1;
    if t.size > 2 * Array.length t.data then resize t
  end

let rec remove_in t i k prec = function
  | Empty -> ()
  | Cons c as cell ->
    if t.equal c.key k then begin
      t.size <- t.size - 1;
      match prec with
      | Empty -> t.data.(i) <- c.next
      | Cons p -> p.next <- c.next
    end
    else remove_in t i k cell c.next

let remove t k =
  guard t;
  t.removes <- t.removes + 1;
  let h = Hashtbl.hash k in
  model_access t h;
  let i = bucket_index t h in
  remove_in t i k Empty t.data.(i)

let mem t k = match lookup t k with Some _ -> true | None -> false

let lookup_batch t keys =
  guard t;
  let n = Array.length keys in
  let hs = Array.map Hashtbl.hash keys in
  let order = Array.init n (fun i -> i) in
  (* Sort by (set, slot hash): same-flow duplicates become adjacent and
     same-set conflicts are grouped, so the model replays the batch with
     the locality the sorted order exposes.  The backing lookups are pure
     reads, so processing order cannot change the delivered results. *)
  Array.sort
    (fun a b ->
      let sa = hs.(a) land t.set_mask and sb = hs.(b) land t.set_mask in
      if sa <> sb then compare sa sb
      else if hs.(a) <> hs.(b) then compare hs.(a) hs.(b)
      else compare a b)
    order;
  let out = Array.make n None in
  Array.iter (fun i -> out.(i) <- lookup_hashed t hs.(i) keys.(i)) order;
  out

let length t = t.size

let iter f t =
  let rec walk = function
    | Empty -> ()
    | Cons { key; hit; next } ->
      f key (Option.get hit);
      walk next
  in
  Array.iter walk t.data

let fold f t acc =
  let rec walk acc = function
    | Empty -> acc
    | Cons { key; hit; next } -> walk (f key (Option.get hit) acc) next
  in
  Array.fold_left walk acc t.data

let flush_cache t = Replace.flush t.rep

let stats t =
  {
    lookups = t.lookups;
    found = t.found;
    missing = t.missing;
    model_hits = t.model_hits;
    model_misses = t.model_misses;
    model_evictions = Replace.evictions t.rep - t.ev_base;
    inserts = t.inserts;
    removes = t.removes;
  }

let reset_stats t =
  t.lookups <- 0;
  t.found <- 0;
  t.missing <- 0;
  t.model_hits <- 0;
  t.model_misses <- 0;
  t.inserts <- 0;
  t.removes <- 0;
  t.ev_base <- Replace.evictions t.rep

let owner t = if t.owner < 0 then None else Some t.owner

let metrics_scalars ~prefix m t =
  let module Metrics = Ldlp_obs.Metrics in
  let set n v = Metrics.scalar m (prefix ^ "." ^ n) := v in
  let s = stats t in
  set "lookups" s.lookups;
  set "found" s.found;
  set "missing" s.missing;
  set "model_hits" s.model_hits;
  set "model_misses" s.model_misses;
  set "model_evictions" s.model_evictions;
  set "inserts" s.inserts;
  set "removes" s.removes;
  set "entries" (length t)
