(** SSCOP-lite: the reliable-transfer layer under Q.93B signalling.

    A deliberately small subset of SSCOP (Q.2110): sequenced data frames
    with cumulative acknowledgments and sender-side retransmission
    buffering.  It exists because the paper's motivating workload — ATM
    signalling — is a multi-layer stack (SAAL = SSCOP + coordination under
    Q.93B), and LDLP's benefit grows with the number of layers crossed per
    message.

    Frame layout: 1 tag byte ('D' sequenced data, 'A' cumulative ack),
    3-byte big-endian sequence number, payload (data frames only). *)

type t

val create : unit -> t

val header_bytes : int
(** 4. *)

type received =
  | Deliver of bytes  (** In-order data; payload for the upper layer. *)
  | Out_of_order of int  (** Unexpected sequence number (frame dropped). *)
  | Ack_processed of int  (** Cumulative ack up to (excluding) this seq. *)
  | Malformed of string

val send : t -> bytes -> bytes
(** Wrap a copy of a payload as the next sequenced-data frame.  The
    returned frame itself is retained for retransmission until
    acknowledged, so it must not be modified afterwards. *)

val send_frame : t -> bytes -> unit
(** [send_frame t f] sends a frame whose payload the caller has already
    written from offset {!header_bytes} on: the 4-byte header is stamped
    in place and [f] itself is retained, with no copy.  This is how a
    message encoded once with header room (see {!Sigmsg.encode_at}) is
    transmitted.  Raises [Invalid_argument] if [f] is shorter than the
    header. *)

type verdict =
  | Data  (** In-order data; its payload is the frame from {!header_bytes}. *)
  | Stale  (** Data with an unexpected sequence number (dropped). *)
  | Acked  (** A cumulative ack, applied to the retention buffer. *)
  | Bad  (** Too short, or an unknown tag. *)

val receive : t -> bytes -> verdict
(** Process an incoming frame (data or ack) without copying or
    allocating: the receive fast path.  {!on_receive} is this plus the
    payload copy and the details. *)

val on_receive : t -> bytes -> received
(** Process an incoming frame (data or ack).  A cumulative ack releases
    every retained frame whose sequence number precedes it in serial
    order modulo 2^24, so the buffer keeps draining after the send
    sequence wraps. *)

val acknowledge : t -> int -> unit
(** Apply a cumulative acknowledgment (an ack or STAT sequence number)
    to the retention buffer. *)

val make_ack : t -> bytes
(** Cumulative acknowledgment for everything delivered so far. *)

val next_send_seq : t -> int

val next_expected_seq : t -> int

val pending : t -> int
(** Number of unacknowledged frames, in O(1). *)

val unacked : t -> (int * bytes) list
(** Retransmission buffer as (sequence number, payload copy), oldest
    first. *)

val retransmit : t -> bytes list
(** Copies of the frames to resend (everything unacknowledged), oldest
    first. *)

(** {1 Raw framing} (shared with the connection-managed layer) *)

val frame : tag:char -> seq:int -> bytes -> bytes

val parse : bytes -> (char * int * bytes, string) result
(** Split any SSCOP frame into (tag, sequence number, payload). *)
