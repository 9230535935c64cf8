(* The retention buffer is a ring of the transmitted frames themselves,
   oldest at [head], with a power-of-two capacity.  Sequence numbers are
   implicit: the frame in ring position i (0 = oldest) carries
   [vt_s - count + i] modulo 2^24, so retaining a frame costs one array
   store and no tuple or queue cell. *)
type t = {
  mutable vt_s : int;  (* next sequence number to send *)
  mutable vr_r : int;  (* next expected receive sequence number *)
  mutable ring : bytes array;  (* unacked frames, oldest at [head] *)
  mutable head : int;
  mutable count : int;
}

let header_bytes = 4

let seq_mask = 0xFFFFFF

let create () =
  { vt_s = 0; vr_r = 0; ring = Array.make 16 Bytes.empty; head = 0; count = 0 }

type received =
  | Deliver of bytes
  | Out_of_order of int
  | Ack_processed of int
  | Malformed of string

type verdict = Data | Stale | Acked | Bad

(* Serial-number order modulo 2^24 (RFC 1982 style): [a] precedes [b]
   when [b] is less than half the sequence space ahead of it. *)
let seq_lt a b =
  let d = (b - a) land seq_mask in
  d <> 0 && d < 0x800000

let seq_at buf =
  (Char.code (Bytes.get buf 1) lsl 16)
  lor (Char.code (Bytes.get buf 2) lsl 8)
  lor Char.code (Bytes.get buf 3)

let stamp frame tag seq =
  Bytes.set frame 0 tag;
  Bytes.set frame 1 (Char.unsafe_chr ((seq lsr 16) land 0xFF));
  Bytes.set frame 2 (Char.unsafe_chr ((seq lsr 8) land 0xFF));
  Bytes.set frame 3 (Char.unsafe_chr (seq land 0xFF))

let frame ~tag ~seq payload =
  let n = Bytes.length payload in
  let b = Bytes.create (header_bytes + n) in
  stamp b tag seq;
  Bytes.blit payload 0 b header_bytes n;
  b

let retain t f =
  let cap = Array.length t.ring in
  if t.count = cap then begin
    let ring = Array.make (2 * cap) Bytes.empty in
    for i = 0 to cap - 1 do
      ring.(i) <- t.ring.((t.head + i) land (cap - 1))
    done;
    t.ring <- ring;
    t.head <- 0
  end;
  t.ring.((t.head + t.count) land (Array.length t.ring - 1)) <- f;
  t.count <- t.count + 1

let send_frame t f =
  if Bytes.length f < header_bytes then
    invalid_arg "Sscop.send_frame: no header room";
  let seq = t.vt_s in
  t.vt_s <- (seq + 1) land seq_mask;
  stamp f 'D' seq;
  retain t f

let send t payload =
  let f = frame ~tag:'D' ~seq:0 payload in
  send_frame t f;
  f

let oldest_seq t = (t.vt_s - t.count) land seq_mask

(* Cumulative ack: every retained frame whose number precedes [seq] is
   confirmed.  Comparing modulo 2^24 keeps the buffer draining after
   [vt_s] wraps. *)
let acknowledge t seq =
  while t.count > 0 && seq_lt (oldest_seq t) seq do
    t.ring.(t.head) <- Bytes.empty;
    t.head <- (t.head + 1) land (Array.length t.ring - 1);
    t.count <- t.count - 1
  done

let receive t buf =
  if Bytes.length buf < header_bytes then Bad
  else
    match Bytes.get buf 0 with
    | 'D' ->
      if seq_at buf = t.vr_r then begin
        t.vr_r <- (t.vr_r + 1) land seq_mask;
        Data
      end
      else Stale
    | 'A' ->
      acknowledge t (seq_at buf);
      Acked
    | _ -> Bad

let on_receive t buf =
  match receive t buf with
  | Data -> Deliver (Bytes.sub buf header_bytes (Bytes.length buf - header_bytes))
  | Stale -> Out_of_order (seq_at buf)
  | Acked -> Ack_processed (seq_at buf)
  | Bad ->
    if Bytes.length buf < header_bytes then
      Malformed (Printf.sprintf "frame too short (%d bytes)" (Bytes.length buf))
    else Malformed (Printf.sprintf "unknown frame tag %C" (Bytes.get buf 0))

let make_ack t =
  let b = Bytes.create header_bytes in
  stamp b 'A' t.vr_r;
  b

let next_send_seq t = t.vt_s

let next_expected_seq t = t.vr_r

let pending t = t.count

let retained t i = t.ring.((t.head + i) land (Array.length t.ring - 1))

let unacked t =
  List.init t.count (fun i ->
      let f = retained t i in
      ( (oldest_seq t + i) land seq_mask,
        Bytes.sub f header_bytes (Bytes.length f - header_bytes) ))

let retransmit t = List.init t.count (fun i -> Bytes.copy (retained t i))

let parse buf =
  if Bytes.length buf < header_bytes then
    Error (Printf.sprintf "frame too short (%d bytes)" (Bytes.length buf))
  else
    Ok
      ( Bytes.get buf 0,
        seq_at buf,
        Bytes.sub buf header_bytes (Bytes.length buf - header_bytes) )
