let small_size = 128

let cluster_size = 2048

type stats = {
  small_allocs : int;
  cluster_allocs : int;
  small_frees : int;
  cluster_frees : int;
  small_in_use : int;
  cluster_in_use : int;
  peak_small : int;
  peak_cluster : int;
}

(* A free list is an array stack: releasing a buffer stores it in a slot
   instead of consing a list cell.  The array doubles on demand up to
   [max_free] slots. *)
type free_list = { mutable slots : bytes array; mutable n : int }

type t = {
  max_free : int;
  small_free : free_list;
  cluster_free : free_list;
  mutable small_allocs : int;
  mutable cluster_allocs : int;
  mutable small_frees : int;
  mutable cluster_frees : int;
  mutable small_in_use : int;
  mutable cluster_in_use : int;
  mutable peak_small : int;
  mutable peak_cluster : int;
}

let free_list () = { slots = [||]; n = 0 }

let create ?(max_free = 4096) () =
  {
    max_free;
    small_free = free_list ();
    cluster_free = free_list ();
    small_allocs = 0;
    cluster_allocs = 0;
    small_frees = 0;
    cluster_frees = 0;
    small_in_use = 0;
    cluster_in_use = 0;
    peak_small = 0;
    peak_cluster = 0;
  }

let pop fl size =
  if fl.n = 0 then Bytes.create size
  else begin
    fl.n <- fl.n - 1;
    let b = Array.unsafe_get fl.slots fl.n in
    Array.unsafe_set fl.slots fl.n Bytes.empty;
    b
  end

let push t fl b =
  if fl.n < t.max_free then begin
    if fl.n = Array.length fl.slots then begin
      let grown =
        Array.make (Int.min t.max_free (Int.max 16 (2 * fl.n))) Bytes.empty
      in
      Array.blit fl.slots 0 grown 0 fl.n;
      fl.slots <- grown
    end;
    Array.unsafe_set fl.slots fl.n b;
    fl.n <- fl.n + 1
  end

let alloc_small t =
  let b = pop t.small_free small_size in
  t.small_allocs <- t.small_allocs + 1;
  t.small_in_use <- t.small_in_use + 1;
  if t.small_in_use > t.peak_small then t.peak_small <- t.small_in_use;
  b

let alloc_cluster t =
  let b = pop t.cluster_free cluster_size in
  t.cluster_allocs <- t.cluster_allocs + 1;
  t.cluster_in_use <- t.cluster_in_use + 1;
  if t.cluster_in_use > t.peak_cluster then t.peak_cluster <- t.cluster_in_use;
  b

let release_small t b =
  if Bytes.length b <> small_size then
    invalid_arg "Pool.release_small: wrong buffer size";
  push t t.small_free b;
  t.small_frees <- t.small_frees + 1;
  t.small_in_use <- t.small_in_use - 1

let release_cluster t b =
  if Bytes.length b <> cluster_size then
    invalid_arg "Pool.release_cluster: wrong buffer size";
  push t t.cluster_free b;
  t.cluster_frees <- t.cluster_frees + 1;
  t.cluster_in_use <- t.cluster_in_use - 1

let stats t : stats =
  {
    small_allocs = t.small_allocs;
    cluster_allocs = t.cluster_allocs;
    small_frees = t.small_frees;
    cluster_frees = t.cluster_frees;
    small_in_use = t.small_in_use;
    cluster_in_use = t.cluster_in_use;
    peak_small = t.peak_small;
    peak_cluster = t.peak_cluster;
  }

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "small: %d alloc / %d free / %d live (peak %d); cluster: %d alloc / %d free / %d live (peak %d)"
    s.small_allocs s.small_frees s.small_in_use s.peak_small s.cluster_allocs
    s.cluster_frees s.cluster_in_use s.peak_cluster
