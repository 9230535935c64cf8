(** Growable circular FIFO with zero steady-state allocation.

    [Stdlib.Queue] allocates a cons cell per push, which puts heap
    traffic on every enqueue of the engine's per-node queues.  This ring
    buffer allocates only when it grows (doubling, so growth is amortised
    away once a workload's high-watermark is reached) — push, pop and
    indexed peek are allocation-free.  The capacity is always a power of
    two, so they are also division-free: a slot index is masked, not
    reduced modulo the capacity.

    Popped slots are {e not} cleared: the engine's messages are pooled
    and outlive the queue reference anyway, and clearing would put a
    write on the hot path for nothing.  Do not use this structure to
    control object lifetime. *)

type 'a t

val create : unit -> 'a t
(** An empty queue.  The backing array is allocated lazily on the first
    push (at {!initial_capacity}), so empty queues cost two words. *)

val initial_capacity : int
(** First allocation size, 64 slots — covers the engine's typical
    per-node backlog without any growth step. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail; O(1) amortised, allocation-free unless the ring
    is full (then it doubles). *)

val pop : 'a t -> 'a
(** Remove the head; raises [Invalid_argument] when empty. *)

val get : 'a t -> int -> 'a
(** [get q k] is the [k]-th element from the head without removing it
    ([get q 0] is the next {!pop}); raises [Invalid_argument] out of
    range.  Used by the batch-limit scan over pending message sizes. *)
