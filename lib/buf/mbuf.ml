type t = {
  mutable data : bytes;
  mutable off : int;
  mutable len : int;
  mutable next : t option;
  mutable cluster : bool;
}

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let msize = 128

let cluster_size = 2048

(* Spare leading space reserved in a fresh small mbuf so protocol layers can
   prepend headers without allocating (4.4BSD reserves max_linkhdr +
   max_protohdr similarly). *)
let lead_space = 64

let get pool =
  {
    data = Pool.alloc_small pool;
    off = lead_space;
    len = 0;
    next = None;
    cluster = false;
  }

let get_cluster pool =
  {
    data = Pool.alloc_cluster pool;
    off = 0;
    len = 0;
    next = None;
    cluster = true;
  }

let release pool m =
  if m.cluster then Pool.release_cluster pool m.data
  else Pool.release_small pool m.data

(* The chain walkers below recurse on the mbuf itself and match on the
   stored [next] field, so a walk allocates nothing (starting from
   [Some m] would box the head on every call). *)
let rec free pool m =
  let next = m.next in
  m.next <- None;
  release pool m;
  match next with None -> () | Some n -> free pool n

let capacity m = Bytes.length m.data

let trailing_space m = capacity m - m.off - m.len

let contiguous m n = m.len >= n

let seg_data m = m.data

let seg_off m = m.off

let seg_len m = m.len

let next m = m.next

let rec length_from acc m =
  match m.next with None -> acc + m.len | Some n -> length_from (acc + m.len) n

let length m = length_from 0 m

let nsegs m =
  let rec go acc = function None -> acc | Some m -> go (acc + 1) m.next in
  go 0 (Some m)

let rec iter_segments m f =
  if m.len > 0 then f m.data m.off m.len;
  match m.next with None -> () | Some n -> iter_segments n f

let last m =
  let rec go m = match m.next with None -> m | Some n -> go n in
  go m

let append_bytes pool m b =
  let total = Bytes.length b in
  let pos = ref 0 in
  let tail = ref (last m) in
  while !pos < total do
    let space = trailing_space !tail in
    if space > 0 then begin
      let n = Int.min space (total - !pos) in
      Bytes.blit b !pos !tail.data (!tail.off + !tail.len) n;
      !tail.len <- !tail.len + n;
      pos := !pos + n
    end
    else begin
      let fresh =
        if total - !pos > msize then get_cluster pool
        else begin
          let f = get pool in
          (* A continuation mbuf never needs leading space. *)
          f.off <- 0;
          f
        end
      in
      !tail.next <- Some fresh;
      tail := fresh
    end
  done

let of_bytes pool ?(leading = lead_space) b =
  if leading < 0 || leading > msize then invalid "of_bytes: bad leading %d" leading;
  let head = get pool in
  head.off <- leading;
  append_bytes pool head b;
  head

let of_string pool ?leading s = of_bytes pool ?leading (Bytes.of_string s)

let rec blit_all m out pos =
  Bytes.blit m.data m.off out pos m.len;
  match m.next with None -> () | Some n -> blit_all n out (pos + m.len)

let to_bytes m =
  let out = Bytes.create (length m) in
  blit_all m out 0;
  out

let rec get_byte_from m pos =
  if pos < m.len then Char.code (Bytes.get m.data (m.off + pos))
  else
    match m.next with
    | None -> invalid "get_byte: offset beyond end"
    | Some n -> get_byte_from n (pos - m.len)

let get_byte m pos =
  if pos < 0 then invalid "get_byte: negative offset %d" pos;
  get_byte_from m pos

let prepend m n =
  if n < 0 then invalid "prepend: negative length %d" n;
  if m.off >= n then begin
    m.off <- m.off - n;
    m.len <- m.len + n;
    m
  end
  else invalid "prepend: no leading space for %d bytes (have %d)" n m.off

(* Trim [n] bytes from the front of the chain. *)
let rec trim_front m n =
  let take = Int.min n m.len in
  m.off <- m.off + take;
  m.len <- m.len - take;
  if n - take > 0 then
    match m.next with
    | None -> invalid "adj: trim %d beyond length" (n - take)
    | Some next -> trim_front next (n - take)

(* Keep the first [keep] bytes; every segment after that is emptied. *)
let rec trim_back m keep =
  if keep >= m.len then
    match m.next with None -> () | Some n -> trim_back n (keep - m.len)
  else begin
    m.len <- keep;
    match m.next with None -> () | Some n -> trim_back n 0
  end

let adj m n =
  if n >= 0 then trim_front m n
  else begin
    let n = -n in
    let total = length m in
    if n > total then invalid "adj: trim %d beyond length %d" n total;
    trim_back m (total - n)
  end

let rec blit_from m pos dst dst_off len =
  if pos >= m.len then blit_next m (pos - m.len) dst dst_off len
  else begin
    let n = Int.min len (m.len - pos) in
    Bytes.blit m.data (m.off + pos) dst dst_off n;
    if len - n > 0 then blit_next m 0 dst (dst_off + n) (len - n)
  end

and blit_next m pos dst dst_off len =
  match m.next with
  | None -> if len > 0 then invalid "blit_to_bytes: range beyond end"
  | Some n -> blit_from n pos dst dst_off len

let blit_to_bytes m ~pos ~(dst : bytes) ~dst_off ~len =
  if pos < 0 || len < 0 then invalid "blit_to_bytes: bad range";
  if len > 0 then blit_from m pos dst dst_off len

let copy_out m ~pos ~len =
  let out = Bytes.create len in
  blit_to_bytes m ~pos ~dst:out ~dst_off:0 ~len;
  out

let copy_into m ~pos ~(src : bytes) ~src_off ~len =
  if pos < 0 || len < 0 then invalid "copy_into: bad range";
  let rec go pos src_off len = function
    | None -> if len > 0 then invalid "copy_into: range beyond end"
    | Some m ->
      if pos >= m.len then go (pos - m.len) src_off len m.next
      else begin
        let n = Int.min len (m.len - pos) in
        Bytes.blit src src_off m.data (m.off + pos) n;
        if len - n > 0 then go 0 (src_off + n) (len - n) m.next
      end
  in
  go pos src_off len (Some m)

let pullup pool m n =
  if n < 0 || n > msize then invalid "pullup: %d out of range" n;
  if n > length m then invalid "pullup: %d beyond length %d" n (length m);
  if m.len >= n then m
  else begin
    let head = get pool in
    head.off <- 0;
    blit_to_bytes m ~pos:0 ~dst:head.data ~dst_off:0 ~len:n;
    head.len <- n;
    (* Drop the consumed prefix from the old chain and free empty leaders. *)
    adj m n;
    let rec skip_empty = function
      | Some seg when seg.len = 0 ->
        let next = seg.next in
        seg.next <- None;
        release pool seg;
        skip_empty next
      | rest -> rest
    in
    head.next <- skip_empty (Some m);
    head
  end

let split pool m n =
  let total = length m in
  if n < 0 || n > total then invalid "split: %d out of range (length %d)" n total;
  let back_len = total - n in
  let back =
    if back_len = 0 then begin
      let b = get pool in
      b
    end
    else begin
      let data = copy_out m ~pos:n ~len:back_len in
      of_bytes pool data
    end
  in
  (* Truncate the front chain in place and free now-empty trailing mbufs. *)
  adj m (-back_len);
  let rec drop_empty_tail m =
    match m.next with
    | None -> ()
    | Some seg when length seg = 0 ->
      m.next <- None;
      free pool seg
    | Some seg -> drop_empty_tail seg
  in
  if n > 0 then drop_empty_tail m;
  (m, back)

let concat a b =
  (last a).next <- Some b;
  a

(* Re-expose wrappers matching the interface's labelled signature. *)
let copy_into m ~pos src ~src_off ~len = copy_into m ~pos ~src ~src_off ~len

let blit_to_bytes m ~pos dst ~dst_off ~len =
  blit_to_bytes m ~pos ~dst ~dst_off ~len
