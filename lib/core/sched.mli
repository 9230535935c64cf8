(** Layer-processing schedulers: conventional call-through vs LDLP.

    This is the paper's contribution (Section 3).  Both disciplines run the
    {e same} layer implementations; only the order in which (layer, message)
    pairs are visited changes:

    - {b Conventional}: one message at a time through every layer —
      the outer loop of Figure 2's left column.  With a protocol working
      set larger than the I-cache, every layer's code is refetched for
      every message.
    - {b LDLP}: one queue per layer.  Arriving messages enter the bottom
      queue; each scheduling step runs the highest non-empty layer to
      completion over {e all} its queued messages, so a layer's code is
      fetched once per batch.  The bottom layer yields after a batch
      bounded by the {!Batch} policy (what fits in the D-cache), keeping
      latency bounded and message data resident while it climbs the
      stack.

    Under light load LDLP degenerates to per-message processing (batch
    size 1) and behaves exactly like the conventional discipline; under
    heavy load batches grow and I-cache misses amortise — which is the
    whole effect measured in Figures 5–7. *)

type discipline = Engine.discipline = Conventional | Ldlp of Batch.policy
(** Re-exported from {!Engine}, which owns the scheduling loop; this
    module is a facade describing the linear receive chain. *)

type stats = {
  injected : int;
  delivered : int;  (** Messages that reached the upward sink. *)
  consumed : int;  (** Messages absorbed by a layer. *)
  sent_down : int;  (** Messages emitted toward the network. *)
  misrouted : int;
      (** [Deliver_to] actions naming anything but the next layer up —
          dropped (a linear chain cannot demultiplex; use {!Graphsched}). *)
  shed : int;
      (** Arrivals refused by the intake high-watermark (never counted in
          [injected]). *)
  batches : int;  (** Bottom-layer scheduling quanta. *)
  max_batch : int;
  total_batched : int;  (** Sum of batch sizes (= bottom-layer dequeues). *)
  per_layer : (string * int) list;  (** Messages handled per layer. *)
}

type 'a t

val create :
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
(** [layers] is bottom-first and must be non-empty.  A [Ldlp (Fixed n)]
    discipline with [n < 1] raises [Invalid_argument] ({!Engine.create}
    checks it, for every facade).  [up] receives messages
    delivered above the top layer; [down] receives [Send_down] messages;
    [on_handled layer_index layer msg] fires before each handler invocation
    (used by the cycle-accurate model to charge the memory system);
    [on_consume] fires when a layer answers [Consume], so pooled messages
    that end their life inside the stack can be released.

    [intake_limit] (≥ 1) is an overload high-watermark on the arrival
    queue: an injection arriving with [backlog] already at the limit is
    {e shed} — refused, counted in [stats.shed] (and a "shed" scalar on
    the metric sheet, registered only when a limit is set), and handed to
    [on_shed] so the owner can reclaim its payload (e.g. free the mbuf
    chain).  Shed messages never enter [injected], so the idle
    conservation invariants are unchanged.  Without a limit intake is
    unbounded, as before.

    [metrics], when given, must have one layer per stack layer (same
    order); while the {!Ldlp_obs.Obs} gate is on the scheduler records
    arrivals, batch sizes, per-layer handler counts/quanta, queue depths
    and per-handler minor-heap allocation into it.  With the gate off the
    sheet is never touched and the instrumentation allocates nothing. *)

val inject : 'a t -> 'a Msg.t -> unit
(** Message arrival at the bottom of the stack.  Never processes anything
    (processing happens in {!step}/{!run}), so callers control
    interleaving of arrivals and work.  Under an [intake_limit] an
    over-watermark arrival is shed silently; use {!try_inject} to
    observe it. *)

val try_inject : 'a t -> 'a Msg.t -> bool
(** Like {!inject}, but reports acceptance: [false] means the message was
    shed (and already passed to [on_shed]). *)

val pending : 'a t -> int
(** Messages currently queued at any layer. *)

val backlog : 'a t -> int
(** Messages waiting in the bottom (arrival) queue — the quantity a
    buffer-capacity check should look at. *)

val step : 'a t -> bool
(** Execute one scheduling quantum; [false] when idle.

    Conventional: take one message from the arrival queue through the whole
    stack.  LDLP: run the highest non-empty layer over its whole queue, or,
    if only the bottom queue is non-empty, process one batch from it. *)

val run : 'a t -> unit
(** [step] until idle. *)

val stats : 'a t -> stats
(** An exact projection of the underlying {!Engine.stats}: [delivered]
    is [to_up], [sent_down] is [to_down], everything else maps by
    name. *)

val layer_names : 'a t -> string list

val engine : 'a t -> 'a Engine.t
(** The underlying engine (same instance, not a copy) — for oracles and
    tests that compare facade stats against engine stats. *)
