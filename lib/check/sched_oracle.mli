(** Equivalence oracle for the LDLP scheduler.

    The paper's core premise (Section 3, restated in Section 5: "LDLP is
    mostly independent from the implementations of the layers themselves")
    is that conventional and blocked scheduling run the {e same}
    per-message work — only the visit order and the cache behaviour
    differ.  This module makes that premise executable: build a stack from
    a declarative {!spec}, run it under [Conventional] and under
    [Ldlp policy], and check that

    - every message visits the same multiset of layers under both
      disciplines;
    - terminal outcomes (delivered / consumed / sent down / misrouted)
      are identical;
    - per-flow delivery order is preserved;
    - conservation holds at idle in both runs:
      [injected = delivered + consumed + misrouted], batches cover every
      injected message, and [max_batch >= 1] whenever any batch ran.

    Handlers are deterministic functions of the message's injection index,
    never of processing order — the property would be vacuous otherwise. *)

type behaviour =
  | Pass  (** Deliver every message upward unchanged. *)
  | Consume_every of int
      (** Absorb messages whose injection index is divisible by [k]
          (a demultiplexer dropping traffic for another stack). *)
  | Reply_every of int
      (** For indices divisible by [k], also send a reply downward (an
          acknowledgment) before delivering the original upward. *)

type spec = {
  layers : behaviour list;  (** Bottom-first; must be non-empty. *)
  msgs : (int * int) list;  (** Per message: (flow, byte size). *)
  policy : Ldlp_core.Batch.policy;
  interleave : int;
      (** Inject in chunks of this many messages, running one scheduling
          quantum between chunks (0 = inject everything, then run) — this
          exercises partial batches and arrival/processing races. *)
}

val pp_spec : Format.formatter -> spec -> unit

type trace = {
  visits : int list array;  (** [visits.(i)]: layers visited by msg [i]. *)
  delivered_order : int list;  (** Injection indices, upward-sink order. *)
  stats : Ldlp_core.Engine.stats;
}

val run_spec : Ldlp_core.Engine.discipline -> spec -> trace

val conserved : Ldlp_core.Engine.stats -> pending:int -> bool
(** The conservation invariants above, checkable on any idle receive
    chain ([delivered] is [to_up]). *)

val equivalent : spec -> (unit, string) result
(** Run the spec under [Conventional] and [Ldlp spec.policy] and compare;
    [Error] carries a human-readable description of the first mismatch. *)

(** {1 Transmit-side oracle}

    The same behaviours installed as [handle_tx] drive a
    {!Ldlp_core.Engine.tx_chain}: [Pass] forwards toward the wire,
    [Consume_every] absorbs, [Reply_every] loops a completion
    notification upward before forwarding. *)

type trace_tx = {
  tx_visits : int list array;
  wire_order : int list;  (** Injection indices, wire-sink order. *)
  tx_stats : Ldlp_core.Engine.stats;
}

val run_spec_tx : Ldlp_core.Engine.discipline -> spec -> trace_tx

val conserved_tx : Ldlp_core.Engine.stats -> pending:int -> bool
(** [injected = to_down + consumed] (loopback notifications are fresh
    messages, not submissions) and batches cover every submission. *)

val equivalent_tx : spec -> (unit, string) result
(** Visit-multiset, terminal-count, per-flow wire-order and conservation
    equivalence for the transmit chain under both disciplines. *)

(** {1 Duplex oracle} *)

type trace_duplex = {
  dx_visits : int list array;
      (** Per original message, node visits over the [2n] duplex nodes —
          including the transmit nodes its replies traverse. *)
  dx_delivered_order : int list;
  dx_wire_order : int list;
      (** Originating injection indices of replies, wire-sink order. *)
  dx_stats : Ldlp_core.Engine.stats;
}

val run_spec_duplex : Ldlp_core.Engine.discipline -> spec -> trace_duplex
(** The spec's receive behaviours over an {!Ldlp_core.Engine.duplex}:
    replies cross into the same layer's transmit node and descend the
    passthrough transmit side to the wire. *)

val equivalent_duplex : spec -> (unit, string) result
(** Visit-multiset (across both directions), terminal-count, per-flow
    delivery-order, wire-multiset and conservation equivalence
    ([injected = to_up + consumed + misrouted]; every reply reaches the
    wire) for the duplex engine under both disciplines.  Wire {e order}
    is deliberately unconstrained: replies originating at different
    receive layers may interleave differently, just as the receive
    oracle never constrains down-sink order. *)

val random_spec : rng:Ldlp_sim.Rng.t -> spec
(** 1-6 layers with mixed behaviours, 0-80 messages over 1-4 flows with
    sizes from 0 to 4 KB, a random batch policy, random interleaving. *)

val run_random : seed:int -> cases:int -> (int, string) result
(** Check [cases] random specs — each through {!equivalent},
    {!equivalent_tx} {e and} {!equivalent_duplex}; [Ok cases] or the
    first failure, prefixed with the offending spec.  Used by
    [ldlp_repro check]. *)
