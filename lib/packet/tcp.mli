(** TCP segment header (RFC 793) and sequence-number arithmetic. *)

type header = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack : int32;
  data_offset : int;  (** Header length in 32-bit words. *)
  flags : int;  (** Bitwise-or of the [flag_*] constants. *)
  window : int;
  urgent : int;
}

val header_bytes : int
(** Minimum header size, 20. *)

val flag_fin : int

val flag_syn : int

val flag_rst : int

val flag_psh : int

val flag_ack : int

val flag_urg : int

val has_flag : header -> int -> bool

type error = [ `Too_short of int | `Bad_checksum | `Bad_field of string ]

val pp_error : Format.formatter -> error -> unit

val parse : bytes -> int -> int -> (header * int, error) result
(** Parse without checksum verification (the checksum covers the payload and
    pseudo-header; use {!verify_checksum}).  Returns header and payload
    offset. *)

val build : header -> bytes -> int -> unit
(** Write a 20-byte header with a zero checksum field; call
    {!store_checksum} afterwards. *)

(** {1 Cursor access}

    Field reads straight off the wire bytes and a record-free writer —
    the hot-path alternative to {!parse}/{!build} that touches the heap
    only for the (boxed) [int32] sequence numbers.  The [*_at] accessors
    perform {e no} validation; call {!check_at} first (it runs exactly
    the checks {!parse} runs) or only use them on buffers this module
    built.  Property-tested byte-for-byte equivalent to the record API
    in the test suite. *)

val check_at : bytes -> int -> int -> (unit, error) result
(** [check_at buf off len] validates the header at [off] of a [len]-byte
    segment the way {!parse} does (length, data-offset sanity), without
    building a [header].  A valid header allocates nothing; its payload
    starts [4 * data_offset_at buf off] bytes in. *)

val src_port_at : bytes -> int -> int

val dst_port_at : bytes -> int -> int

val seq_at : bytes -> int -> int32

val ack_at : bytes -> int -> int32

val data_offset_at : bytes -> int -> int

val flags_at : bytes -> int -> int

val window_at : bytes -> int -> int

val urgent_at : bytes -> int -> int

val write :
  src_port:int ->
  dst_port:int ->
  seq:int32 ->
  ack:int32 ->
  data_offset:int ->
  flags:int ->
  window:int ->
  urgent:int ->
  bytes ->
  int ->
  unit
(** {!build} from scalar fields: writes the same 20 bytes (checksum field
    zeroed) without an intermediate [header] record. *)

val checksum :
  src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> bytes -> int -> int -> int
(** Checksum of a TCP segment (header + payload) in a flat buffer, including
    the pseudo-header. *)

val verify_checksum :
  src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> Ldlp_buf.Mbuf.t -> bool
(** Whether the segment held in a chain checksums to zero. *)

val store_checksum : src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> bytes -> int -> int -> unit
(** Compute and store the checksum of the segment at [off..off+len). *)

val store_chain_checksum :
  src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> Ldlp_buf.Mbuf.t -> unit
(** Compute and store the checksum of the segment held in a chain, whose
    20-byte header must lie in the head mbuf (raises [Invalid_argument]
    otherwise).  The chain is summed in place, without linearising. *)

(** Modular 32-bit sequence comparison (RFC 793 arithmetic). *)

val seq_lt : int32 -> int32 -> bool

val seq_leq : int32 -> int32 -> bool

val seq_add : int32 -> int -> int32

val seq_diff : int32 -> int32 -> int
(** [seq_diff a b] is the signed distance [a - b]. *)
