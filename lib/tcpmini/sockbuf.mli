(** Socket receive buffer — the [sbappend]/[soreceive] pair of the paper's
    Table 2 path, reduced to its data plane.

    Bytes appended by the protocol accumulate until the application reads
    them; a high-water mark bounds occupancy and determines the window the
    protocol advertises. *)

type t

val create : ?hiwat:int -> unit -> t
(** Default high-water mark 16384 bytes. *)

val hiwat : t -> int

val length : t -> int
(** Unread bytes. *)

val space : t -> int
(** Room left before the high-water mark (never negative). *)

val append : t -> Ldlp_buf.Mbuf.t -> int
(** [append sb m] copies as much of the chain's payload as fits, from its
    first byte, into the buffer and returns the number of bytes accepted.
    That copy is the payload's only one on the receive path; the chain
    is left untouched (the caller still owns and frees it). *)

val read : t -> int -> bytes
(** [read sb n] removes and returns up to [n] bytes (the [soreceive]
    copyout). *)

val read_all : t -> bytes

val wakeups : t -> int
(** How many times an append made data available to a sleeping reader
    (transitions from empty to non-empty — the [sowakeup] count). *)
