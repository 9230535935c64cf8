(** Internet checksum (RFC 1071) in two styles, mirroring the paper's
    Figure 8 study:

    - {!simple}: a straightforward 16-bit accumulation loop — small code
      footprint (the paper's 288-byte routine), more work per byte;
    - {!unrolled}: the elaborate routine modelled on 4.4BSD [in_cksum] —
      large footprint (992 bytes active), fewer operations per byte.  It
      loads 8-byte machine words in native byte order, four per
      iteration, and folds and byte-swaps once at the end.

    Both compute the same ones-complement sum; the property tests assert
    equality with a byte-wise reference on arbitrary inputs, and the
    model library attaches cold/warm cache cost models to each.

    The data path (TCP, UDP and the IPv4 header, through {!partial},
    {!partial_chain} and {!unrolled}) uses the elaborate routine;
    {!simple} and {!simple_chain} remain the paper's small routine. *)

val simple : bytes -> int -> int -> int
(** [simple buf off len] is the 16-bit ones-complement checksum of the
    range, folded and complemented, in [0, 0xffff]. *)

val unrolled : bytes -> int -> int -> int
(** Same result as {!simple}, computed with the word-at-a-time routine. *)

val simple_chain : Ldlp_buf.Mbuf.t -> int
(** Checksum an mbuf chain without linearising it, handling odd-length
    segments with byte-swapped carry as 4.4BSD does. *)

val unrolled_chain : Ldlp_buf.Mbuf.t -> int

val partial : bytes -> int -> int -> int
(** Uncomplemented ones-complement sum of the range in network byte
    order, for pseudo-header combination.  The sum may come back folded
    (the word-at-a-time routine returns it in [0, 0xffff]); callers add
    it to other partial sums and let {!finish} fold the total. *)

val partial_chain : Ldlp_buf.Mbuf.t -> int
(** {!partial} over a whole mbuf chain, folded to [0, 0xffff]. *)

val finish : int -> int
(** Fold a partial sum to 16 bits and complement. *)

val code_bytes_simple : int
(** Active code footprint the paper reports for the simple routine (288). *)

val code_bytes_unrolled : int
(** Active footprint of 4.4BSD's routine for messages > 32 bytes (992). *)
