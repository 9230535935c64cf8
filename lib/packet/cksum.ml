let code_bytes_simple = 288

let code_bytes_unrolled = 992

let check_range buf off len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Cksum: range out of bounds"

let fold16 sum =
  let s = ref sum in
  while !s > 0xFFFF do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  !s

let byte buf i = Char.code (Bytes.unsafe_get buf i)

let swap16 v = ((v land 0xFF) lsl 8) lor (v lsr 8)

(* The paper's small routine: one big-endian 16-bit word per step. *)
let simple_partial buf off len =
  check_range buf off len;
  let sum = ref 0 in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    sum := !sum + (byte buf !i lsl 8) + byte buf (!i + 1);
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (byte buf !i lsl 8);
  !sum

let finish sum = lnot (fold16 sum) land 0xFFFF

let simple buf off len = finish (simple_partial buf off len)

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"

external get16u : bytes -> int -> int = "%caml_bytes_get16u"

(* Both 32-bit halves of a native-order 8-byte load.  The int64 never
   leaves registers, so this allocates nothing.  Inlined so the loops in
   [partial] make no calls: left to the compiler's default it stays a
   call per 8-byte word. *)
let[@inline] halves buf k =
  let w = get64u buf k in
  (Int64.to_int w land 0xFFFF_FFFF)
  + Int64.to_int (Int64.shift_right_logical w 32)

(* The "elaborate" routine, standing in for 4.4BSD [in_cksum]: it loads
   8-byte machine words in native byte order, four per iteration, then
   single words, then 16-bit words and an odd tail byte.  The 63-bit
   accumulator takes 2^30 32-bit halves without overflow, far beyond any
   buffer here.  Ones-complement sums are byte-order independent (RFC 1071
   §2(B)), so the result is folded once and, on a little-endian host,
   byte-swapped once into network order. *)
let partial buf off len =
  check_range buf off len;
  let sum = ref 0 in
  let i = ref off in
  let stop = off + len in
  while stop - !i >= 32 do
    let k = !i in
    sum :=
      !sum + halves buf k + halves buf (k + 8) + halves buf (k + 16)
      + halves buf (k + 24);
    i := k + 32
  done;
  while stop - !i >= 8 do
    sum := !sum + halves buf !i;
    i := !i + 8
  done;
  while stop - !i >= 2 do
    sum := !sum + get16u buf !i;
    i := !i + 2
  done;
  (* A trailing odd byte is the first (network high-order) byte of a
     zero-padded word: the low byte of a little-endian native word. *)
  if !i < stop then
    sum := !sum + if Sys.big_endian then byte buf !i lsl 8 else byte buf !i;
  let s = fold16 !sum in
  if Sys.big_endian then s else swap16 s

let unrolled buf off len = finish (partial buf off len)

(* Chain checksum: ones-complement sums commute with byte swapping, so a
   segment starting at an odd payload offset is summed normally and its
   folded contribution swapped — the classic 4.4BSD trick for odd-length
   mbufs.  A direct walk over the segments: no closure, no refs. *)
let rec chain_sum seg_partial acc odd m =
  let len = Ldlp_buf.Mbuf.seg_len m in
  let data = Ldlp_buf.Mbuf.seg_data m and off = Ldlp_buf.Mbuf.seg_off m in
  let part = fold16 (seg_partial data off len) in
  let acc = acc + if odd then swap16 part else part in
  let odd = odd <> (len land 1 = 1) in
  match Ldlp_buf.Mbuf.next m with
  | None -> acc
  | Some n -> chain_sum seg_partial acc odd n

let partial_chain m = fold16 (chain_sum partial 0 false m)

let simple_chain m = finish (chain_sum simple_partial 0 false m)

let unrolled_chain m = finish (partial_chain m)
