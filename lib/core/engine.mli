(** The one LDLP engine: layer scheduling over a directed layer graph.

    This is the paper's contribution (Section 3).  Both disciplines run
    the {e same} layer implementations; only the order in which (layer,
    message) pairs are visited changes:

    - {b Conventional}: one message at a time through every layer — the
      outer loop of Figure 2's left column.  Pop one message from the
      highest-priority non-empty queue and recurse it through the graph
      depth-first.  With a protocol working set larger than the I-cache,
      every layer's code is refetched for every message.
    - {b LDLP}: one queue per layer.  A quantum runs the highest-priority
      non-empty node to completion over {e all} its queued messages, so
      a layer's code is fetched once per batch.  Entry nodes instead
      yield after a batch bounded by the {!Batch} policy (what fits in
      the D-cache), keeping latency bounded and message data resident
      while it climbs the stack.

    Under light load LDLP degenerates to per-message processing (batch
    size 1) and behaves exactly like the conventional discipline; under
    heavy load batches grow and I-cache misses amortise — which is the
    whole effect measured in Figures 5–7.

    The rule applies in several shapes, all built here: up a linear
    receive chain ({!rx_chain}), down a linear transmit chain
    ({!tx_chain}), over both directions of one stack at once
    ({!duplex}), or across any graph of nodes the caller adds itself
    ({!create}, {!add_node}) — a demultiplexing stack, say, where IP fans
    out to TCP and UDP (Section 3.2).

    A node is a layer plus a {e role}: which handler runs ([handle] for
    receive traversal, [handle_tx] for transmit), where each
    {!Layer.action} routes ({!target}), a scheduling priority, and
    whether the node is an {e entry point}.  Priorities encode "furthest
    from the entry points wins", so a message near its exit always
    pre-empts newly arrived work.  Ties break toward the
    earliest-registered node, which keeps graph scheduling
    deterministic.

    {b What one hop costs.}  LDLP pays off only when handing a message
    from one layer's batch to the next costs less than the I-cache
    refills it saves, so a hop is one ring write and one ring read.  Each
    node's queue is a power-of-two ring typed ['a Msg.t array] inside the
    node record: no float-array tag test, no bounds check on the masked
    index, no emptiness re-test in the quantum loops.  Routes are
    resolved to node records, and a priority-ordered node array built,
    once after {!add_node} and before the next {!step}.  The handler is
    chosen once per node, an absent [on_handled] hook costs one test, and
    the entry [Dcache_fit] bound reads sizes from the ring in place.
    Both disciplines share this one hop. *)

type discipline = Conventional | Ldlp of Batch.policy

type target =
  | To_node of int  (** Forward into another node's queue (or recurse). *)
  | To_up  (** Terminal: the upward sink ([stats.to_up]). *)
  | To_down  (** Terminal: the downward/wire sink ([stats.to_down]). *)
  | Misroute  (** Terminal: dropped, counted in [stats.misrouted]. *)

type stats = {
  injected : int;  (** Accepted arrivals across all injection points. *)
  to_up : int;  (** Messages that reached the upward sink. *)
  to_down : int;  (** Messages that reached the downward sink. *)
  consumed : int;  (** Messages absorbed by a layer. *)
  misrouted : int;  (** Actions routed along a non-existent edge. *)
  shed : int;  (** Arrivals refused by the intake high-watermark. *)
  batches : int;  (** Scheduling quanta charged to entry points. *)
  max_batch : int;
  total_batched : int;  (** Sum of recorded batch sizes. *)
  per_node : (string * int) list;  (** Handler invocations, node order. *)
  per_node_runs : (string * int) list;
      (** How many times scheduling {e switched into} each node — the
          number of code working-set reloads, the quantity LDLP batching
          amortises.  Node order. *)
}

type 'a t

val create :
  discipline:discipline ->
  ?up:('a Msg.t -> unit) ->
  ?down:('a Msg.t -> unit) ->
  ?on_handled:(int -> 'a Layer.t -> 'a Msg.t -> unit) ->
  ?on_consume:('a Msg.t -> unit) ->
  ?intake_limit:int ->
  ?on_shed:('a Msg.t -> unit) ->
  unit ->
  'a t
(** An empty engine.  [up]/[down] receive messages routed {!To_up} /
    {!To_down}; [on_handled node_index layer msg], when given, fires
    before every handler invocation.  Raises [Invalid_argument] on an
    [Ldlp (Fixed n)] discipline with [n < 1], so every builder over the
    engine rejects such a policy before any message is queued.  [on_consume] fires when a layer answers
    {!Layer.Consume} — the natural place to release a pooled message
    that ends its life inside the stack.  [intake_limit] (≥ 1) bounds
    every injection queue with the drop-at-the-door policy: an arrival
    finding the named node's queue at the watermark is counted in
    [stats.shed], handed to [on_shed], and refused without touching
    [injected]. *)

val add_node :
  'a t ->
  layer:'a Layer.t ->
  use_tx:bool ->
  priority:int ->
  entry:bool ->
  up_route:target ->
  to_route:(string -> target) ->
  down_route:target ->
  int
(** Register a node and return its index (assigned sequentially).
    [use_tx] selects [Layer.handle_tx] over [Layer.handle];
    [up_route]/[to_route]/[down_route] say where [Deliver_up],
    [Deliver_to] and [Send_down] actions go from this node.  [entry]
    nodes take batch-bounded quanta under LDLP; non-entry nodes run to
    completion.  Routes may name nodes not yet added ([To_node j] with
    [j >= node_count]) only if they are added before any message takes
    that route; a message taking a route to a node that was never added
    raises [Invalid_argument].  Routes are resolved to nodes at the next
    {!step}, so adding nodes between steps is allowed. *)

val node_count : 'a t -> int

val node_name : 'a t -> int -> string

val attach_metrics : 'a t -> Ldlp_obs.Metrics.t -> unit
(** Attach a metric sheet; one row per node, in node order (the sheet's
    layer count must match {!node_count}).  While the {!Ldlp_obs.Obs}
    gate is on the engine records arrivals, batch sizes, per-node handler
    counts/quanta, queue depths and per-handler minor-heap allocation;
    with the gate off the sheet is never touched.  When an
    [intake_limit] is set, a "shed" scalar is also registered —
    unlimited engines leave sheets unchanged. *)

val try_inject : 'a t -> node:int -> 'a Msg.t -> bool
(** Message arrival at a node's queue; [false] means it was shed (and
    already passed to [on_shed]).  Never processes anything — callers
    control the interleaving of arrivals and work. *)

val inject : 'a t -> node:int -> 'a Msg.t -> unit
(** {!try_inject}, shedding silently. *)

val backlog : 'a t -> node:int -> int

val pending : 'a t -> int

val step : 'a t -> bool
(** One scheduling quantum; [false] when every queue is empty. *)

val run : 'a t -> unit
(** {!step} until idle, then check the idle invariants (under
    [LDLP_CHECK]): no pending messages, every enqueued message handled
    exactly once, batch accounting sane.  On a {!rx_chain} also: every
    injection was batched exactly once, and [injected = to_up + consumed
    + misrouted] (each message ends in one terminal action; [Send_down]
    replies are fresh messages). *)

val stats : 'a t -> stats

(** {1 Linear chains}

    Both chains take [layers] bottom-first and non-empty, so one stack
    description serves either direction.  [metrics], when given, must
    have one row per layer, in the same order; while the
    {!Ldlp_obs.Obs} gate is on the engine records into it, with the gate
    off the sheet is never touched ({!attach_metrics}). *)

val rx_chain :
  discipline:discipline ->
  layers:'a Layer.t list ->
  ?up:('a Msg.t -> unit) ->
  ?down:('a Msg.t -> unit) ->
  ?on_handled:(int -> 'a Layer.t -> 'a Msg.t -> unit) ->
  ?on_consume:('a Msg.t -> unit) ->
  ?intake_limit:int ->
  ?on_shed:('a Msg.t -> unit) ->
  ?metrics:Ldlp_obs.Metrics.t ->
  unit ->
  'a t
(** The receive chain: node [i] runs layer [i]'s [handle]; arrivals are
    injected at node [0], whose quanta are batch-bounded, and the layer
    furthest up wins.  [up] receives messages delivered above the top
    layer, [down] every [Send_down]; a [Deliver_to] naming anything but
    the next layer up is misrouted (a chain cannot demultiplex).
    [on_handled layer_index layer msg] fires before each handler
    invocation (the cycle-accurate model charges the memory system
    there).  [intake_limit] bounds node [0]'s queue as in {!create}. *)

val tx_chain :
  discipline:discipline ->
  layers:'a Layer.t list ->
  ?wire:('a Msg.t -> unit) ->
  ?up:('a Msg.t -> unit) ->
  ?on_handled:(int -> 'a Layer.t -> 'a Msg.t -> unit) ->
  ?on_consume:('a Msg.t -> unit) ->
  ?intake_limit:int ->
  ?on_shed:('a Msg.t -> unit) ->
  ?metrics:Ldlp_obs.Metrics.t ->
  unit ->
  'a t
(** The transmit chain, the receive chain's mirror — the paper notes its
    techniques "are also applicable to transmit-side processing" but does
    not evaluate them.  Node [i] runs layer [i]'s [handle_tx];
    applications submit at the top node, [n - 1], whose quanta are
    batch-bounded, and the layer closest to the wire wins.  [wire]
    receives frames leaving below layer [0]; [up] receives any
    [Deliver_up] or [Deliver_to] a transmit handler emits (e.g.
    loopback).  [intake_limit] bounds the submission queue. *)

(** {1 Full-duplex stacks}

    The capability the three separate engines could not express: one
    engine instance scheduling {e both} directions of a stack in a
    single quantum loop.  Given layers [l0 .. l(n-1)] (bottom-first, as
    everywhere), {!duplex} builds [2n] nodes — receive nodes [0..n-1]
    running [handle] bottom-up, transmit nodes [n..2n-1] (transmit node
    for layer [i] at index [n + i]) running [handle_tx] top-down.  A
    receive node's [Send_down] crosses into the {e same layer's}
    transmit node, so replies generated while draining a receive batch
    (TCP ACKs) join the transmit queues of the same scheduling pass and
    descend as a batch of their own — cross-direction amortisation.

    Priorities place the whole transmit side above the whole receive
    side (a frame about to reach the wire is furthest from any entry
    point), descending within transmit and ascending within receive:

    {v
      tx l0 (wire)  >  tx l1  >  ...  >  tx l(n-1)
                    >  rx l(n-1)  >  ...  >  rx l0 (entry)
    v}

    Entries: receive node [0] (frame arrival, {!duplex_rx_entry}) and
    transmit node [2n-1] (application submission, {!duplex_tx_entry});
    both take batch-bounded quanta. *)

val duplex :
  discipline:discipline ->
  layers:'a Layer.t list ->
  ?up:('a Msg.t -> unit) ->
  ?wire:('a Msg.t -> unit) ->
  ?on_handled:(int -> 'a Layer.t -> 'a Msg.t -> unit) ->
  ?on_consume:('a Msg.t -> unit) ->
  ?intake_limit:int ->
  ?on_shed:('a Msg.t -> unit) ->
  ?metrics:Ldlp_obs.Metrics.t ->
  unit ->
  'a t
(** [layers] must be non-empty.  [up] receives messages delivered above
    the top receive layer; [wire] receives frames leaving below the
    bottom transmit layer (and any [Deliver_up] a transmit handler emits
    goes to [up], as in {!tx_chain}).  [metrics] needs [2n] rows: the
    receive rows first, then the transmit rows ({!duplex_layer_names}
    builds the names).  [intake_limit] bounds both entry queues. *)

val duplex_rx_entry : 'a t -> int
(** Node index where frames are injected (always [0]). *)

val duplex_tx_entry : 'a t -> int
(** Node index where the application submits (always [2n - 1]). *)

val duplex_layer_names : string list -> string list
(** Sheet row names for a duplex engine over the given (bottom-first)
    layer names: the names as given, then each suffixed ["/tx"], still
    bottom-first (node index order). *)

val tx_runs : 'a t -> int
(** Duplex reporting helper: total scheduling switches into transmit-side
    nodes ([n .. 2n-1]).  [to_down / tx_runs] is the cross-direction
    amortisation — how many wire-bound messages each reload of the
    transmit-side code paid for. *)
