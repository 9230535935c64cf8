(** A single cache (instruction or data) simulated at line granularity.

    Supports direct-mapped and N-way set-associative organisations with LRU
    replacement.  Addresses are plain [int] byte addresses in an arbitrary
    flat address space; only [addr / line_bytes] matters. *)

type t

val create : Config.t -> t

val config : t -> Config.t

val access : t -> int -> bool
(** [access c addr] simulates one reference to the line containing byte
    [addr]; returns [true] on a hit, installing the line on a miss. *)

val access_line : t -> int -> bool
(** Like {!access} but the argument is already a line number.  This is the
    hot path of the protocol-stack simulator. *)

val touch_range : t -> addr:int -> len:int -> int
(** Reference every line in a byte range, lowest first; returns the number
    of misses.  Equal to calling {!access_line} on each line in turn, in
    misses, hit/miss counters and tag state.

    The lines are walked as one {!Replace.access_run}.  When the range
    spans at most [sets] lines, the cache also remembers it: if the next
    state-changing call on this cache is [touch_range] over the same lines,
    every line is already resident at MRU in its own set, so that call
    adds the hits and returns [0] without walking the tags.  {!access},
    {!access_line}, {!flush} and a different range forget the memo;
    {!resident} and {!iter_resident} do not. *)

val resident : t -> int -> bool
(** Whether the line containing byte [addr] is currently cached (no state
    change). *)

val flush : t -> unit
(** Invalidate all lines (cold cache). *)

val occupancy : t -> int
(** Number of valid lines currently held. *)

val iter_resident : t -> (int -> unit) -> unit
(** [iter_resident c f] calls [f line] for every line currently cached, in
    set order, most recently used first within a set (no state change).
    Lets an external checker compare the full tag state against a
    reference implementation — see [Ldlp_check.Cache_oracle]. *)

val hits : t -> int

val misses : t -> int

val reset_counters : t -> unit
