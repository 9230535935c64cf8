(** The signalling stack as {!Ldlp_core} layers.

    Four layers, bottom to top, matching the SAAL/Q.93B split the paper's
    target workload uses:

    + {b link} — strip the 1-byte port tag from the raw frame;
    + {b sscop} — sequenced delivery: deliver in-order data upward, emit a
      cumulative ack downward, absorb acks;
    + {b q93b} — decode the signalling message;
    + {b call} — run the {!Switch} call-control engine; its replies are
      re-encoded, wrapped by the per-port SSCOP transmitter, tagged with
      the outgoing port, and sent down.

    Payloads move through the variant {!body} as each layer strips its
    header — the same hand-off-the-buffer discipline (Section 3.2) the
    mbuf system provides for TCP/IP.  Each layer rewrites the payload and
    size of the message it was given and answers [Up]; nothing may keep a
    message it handed up and expect its payload to stay put.

    Footprints attached to each layer are measured estimates of the OCaml
    implementation's code size; they drive the {!Ldlp_core.Blocking}
    analysis, not execution. *)

type body =
  | Raw of Ldlp_buf.Mbuf.t  (** As received: port tag + SSCOP frame. *)
  | Sdu of int * bytes  (** (port, SSCOP frame). *)
  | Signalling of int * bytes
      (** (port, SSCOP frame): the same bytes as the {!Sdu}, with the
          Q.93B message starting at offset {!Sscop.header_bytes} — decode
          it with [Sigmsg.decode_sub], not [Sigmsg.decode]. *)
  | Decoded of int * Sigmsg.t

type item = body

val frame : pool:Ldlp_buf.Pool.t -> port:int -> bytes -> Ldlp_buf.Mbuf.t
(** Build a raw link frame around SSCOP payload bytes. *)

val encode_tx : sscop_for:(int -> Sscop.t) -> port:int -> Sigmsg.t -> int * bytes
(** Encode a signalling message for transmission: Q.93B bytes wrapped in a
    sequenced SSCOP frame for the given port.  Returns (port, frame).  The
    frame is the one that port's SSCOP retains for retransmission, so the
    caller must not modify it. *)

type stack = {
  layers : item Ldlp_core.Layer.t list;
  sscop_for : int -> Sscop.t;
      (** Per-port receive/transmit SSCOP state.  Ports are 0-255, the
          link frame's one-byte tag; others raise [Invalid_argument]. *)
  switch : Switch.t;
}

val stack :
  pool:Ldlp_buf.Pool.t ->
  switch:Switch.t ->
  ?acks:bool ->
  unit ->
  stack
(** Build the four-layer receive stack.  With [acks] (default true) the
    sscop layer sends a cumulative ack downward for every delivered
    frame. *)
