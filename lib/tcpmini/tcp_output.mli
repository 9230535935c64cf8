(** TCP segment construction (the [tcp_output] half of the paper's traced
    path, reduced to what the receive side needs: ACKs, SYN-ACKs, RSTs and
    small data segments). *)

val segment :
  Ldlp_buf.Pool.t ->
  src:Ldlp_packet.Addr.Ipv4.t ->
  dst:Ldlp_packet.Addr.Ipv4.t ->
  src_port:int ->
  dst_port:int ->
  seq:int32 ->
  ack:int32 ->
  flags:int ->
  window:int ->
  ?payload:bytes ->
  unit ->
  Ldlp_buf.Mbuf.t
(** A complete TCP segment (header + payload) with a correct checksum,
    written straight into a fresh chain from the pool.  The head mbuf
    keeps leading space for the IP and Ethernet headers, so the caller
    can {!Ldlp_buf.Mbuf.prepend} them without copying.  [window] is
    clamped to 65535. *)
