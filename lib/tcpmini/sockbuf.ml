(* Chunks wait in a ring of [cap] slots (a power of two, doubled when
   full), so appending stores into a slot instead of allocating a queue
   cell. *)
type t = {
  hiwat : int;
  mutable ring : bytes array;
  mutable head : int;  (* slot of the front chunk *)
  mutable count : int;  (* chunks queued *)
  mutable len : int;
  mutable wakeups : int;
  mutable read_off : int;  (* consumed prefix of the front chunk *)
}

let create ?(hiwat = 16384) () =
  if hiwat <= 0 then invalid_arg "Sockbuf.create: hiwat must be positive";
  {
    hiwat;
    ring = [||];
    head = 0;
    count = 0;
    len = 0;
    wakeups = 0;
    read_off = 0;
  }

let hiwat t = t.hiwat

let length t = t.len

let space t = Int.max 0 (t.hiwat - t.len)

let push t chunk =
  let cap = Array.length t.ring in
  if t.count = cap then begin
    let grown = Array.make (Int.max 8 (2 * cap)) Bytes.empty in
    for i = 0 to t.count - 1 do
      grown.(i) <- t.ring.((t.head + i) land (cap - 1))
    done;
    t.ring <- grown;
    t.head <- 0
  end;
  t.ring.((t.head + t.count) land (Array.length t.ring - 1)) <- chunk;
  t.count <- t.count + 1

(* The only copy of a received payload: straight from the mbuf chain
   into a chunk of exactly the accepted size. *)
let append t m =
  let accept = Int.min (Ldlp_buf.Mbuf.length m) (space t) in
  if accept > 0 then begin
    if t.len = 0 then t.wakeups <- t.wakeups + 1;
    let chunk = Bytes.create accept in
    Ldlp_buf.Mbuf.blit_to_bytes m ~pos:0 chunk ~dst_off:0 ~len:accept;
    push t chunk;
    t.len <- t.len + accept
  end;
  accept

let read t n =
  let n = Int.min n t.len in
  let out = Bytes.create n in
  let pos = ref 0 in
  while !pos < n do
    let front = t.ring.(t.head) in
    let avail = Bytes.length front - t.read_off in
    let take = Int.min avail (n - !pos) in
    Bytes.blit front t.read_off out !pos take;
    pos := !pos + take;
    t.read_off <- t.read_off + take;
    if t.read_off = Bytes.length front then begin
      t.ring.(t.head) <- Bytes.empty;
      t.head <- (t.head + 1) land (Array.length t.ring - 1);
      t.count <- t.count - 1;
      t.read_off <- 0
    end
  done;
  t.len <- t.len - n;
  out

let read_all t = read t t.len

let wakeups t = t.wakeups
