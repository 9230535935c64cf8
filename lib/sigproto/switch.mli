(** A software signalling switch: the paper's motivating workload.

    Terminates Q.93B-style call control on each port, routes SETUPs by
    called-party address prefix, allocates a VPI/VCI on the outgoing link,
    and tears state down on RELEASE.  The performance goal from the paper's
    introduction — 10 000 setup/teardown pairs per second at ~100 us per
    message on a commodity CPU — is what the signalling example measures
    against.

    The switch is purely reactive: [handle] maps one incoming message to
    the messages to transmit.  It keeps per-call state for both half-calls
    (ingress and egress side). *)

type t

type stats = {
  setups_routed : int;
  calls_connected : int;
  calls_released : int;
  rejected : int;  (** SETUPs refused (no route / table full). *)
  protocol_errors : int;
}

val create :
  ?max_calls:int ->
  ?auto_answer:bool ->
  routes:(string * int) list ->
  local_port:int ->
  unit ->
  t
(** [routes] maps called-party address prefixes to output ports;
    [local_port] is where unmatched addresses terminate (the switch's own
    "host" side).  [max_calls] bounds the VC table (default 65536).
    With [auto_answer] (default false), calls that terminate on
    [local_port] are answered immediately by the switch itself — no
    downstream handshake — which is how the flood benchmarks exercise the
    full called-side exchange without a peer. *)

(** Ports are [0 .. max_int lsr 23]: {!create} and {!handle} raise
    [Invalid_argument] outside that range, and {!handle} also for a call
    reference outside [0 .. 0x7FFFFF]. *)

val handle : t -> port:int -> Sigmsg.t -> (int * Sigmsg.t) list
(** Process one incoming message, returning [(out_port, message)] pairs to
    transmit.  Unknown call references and FSM violations produce STATUS or
    RELEASE_COMPLETE per Q.93B custom and count as protocol errors.  The
    same call reference on two ports names two independent calls. *)

val active_calls : t -> int

val stats : t -> stats
(** A snapshot of the counters. *)

val vci_of_call : t -> call_ref:int -> (int * int) option
(** The VPI/VCI the switch allocated for a call routed in with this
    (upstream) call reference and not yet released; if several ports
    carry it, any one of those calls. *)
