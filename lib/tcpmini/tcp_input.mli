(** TCP receive processing — the paper's Table 2 path as an executable
    state machine.

    Follows the structure of 4.4BSD [tcp_input] that the paper traces:
    checksum verification, PCB lookup through the single-entry cache,
    a header-prediction fast path for in-order established-state data, and
    the 4.4BSD acknowledgment policy of one ACK for every second data
    segment (which is exactly the case the paper measures: "this TCP
    implementation sends an ACK for every second data packet").

    Sequence-space handling is deliberately minimal: out-of-order segments
    are dropped and re-acknowledged (no reassembly queue), which is enough
    for the locality experiments and keeps the state machine fully
    testable. *)

type reply = {
  dst : Ldlp_packet.Addr.Ipv4.t;
  src_port : int;  (** Our port. *)
  dst_port : int;
  seq : int32;
  ack : int32;
  flags : int;
  window : int;
}

type drop_reason =
  [ `Bad_checksum
  | `Parse_failed
  | `No_pcb  (** RST generated. *)
  | `Bad_state ]

type outcome = {
  pcb : Pcb.t option;
  delivered : int;  (** Payload bytes appended to the socket buffer. *)
  replies : reply list;
  fastpath : bool;  (** Whether header prediction took the segment. *)
  dropped : drop_reason option;
}

val initial_send_seq : int32
(** ISS used for SYN-ACKs (fixed — no clock dependence, reproducible). *)

val segment_arrived :
  Pcb.table ->
  my_ip:Ldlp_packet.Addr.Ipv4.t ->
  src_ip:Ldlp_packet.Addr.Ipv4.t ->
  pool:Ldlp_buf.Pool.t ->
  now:float ->
  Ldlp_buf.Mbuf.t ->
  outcome
(** Process one TCP segment held in an mbuf chain (IP header already
    stripped).  The chain is consumed (freed).  The payload is copied
    once, straight from the chain into the socket buffer; a header
    carrying options (data offset above 5) is pulled up whole and its
    options skipped.

    [now] is the arrival time used by the loss-recovery
    bookkeeping: incoming ACK values run through {!Pcb.on_ack} (releasing
    tracked segments, feeding the {!Rto} estimator under Karn's rule, and
    flagging a fast retransmit on the PCB after three duplicate ACKs), and
    a retransmitted SYN in [Syn_received] gets its SYN-ACK repeated.  With
    no tracked segments (no timers attached — see {!Host.attach_timers})
    all of this is inert. *)

type stats = { fastpath_hits : int; slowpath : int; acks_sent : int; drops : int }

val stats : unit -> stats
(** Per-domain counters (reset with {!reset_stats}) — each domain of a
    sharded data path sees only its own stack's counts; coarse but handy
    for examples and tests. *)

val reset_stats : unit -> unit
