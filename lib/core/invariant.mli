(** Cheap runtime invariant checks for the scheduling engines.

    The differential oracles in [lib/check] validate the schedulers against
    independent reference implementations offline; this module puts a
    subset of the same invariants {e inside} the hot paths, so a long
    simulation or a production deployment can run with self-checking on.

    Checks are off by default and cost one [bool] load when disabled.
    Enable them with the [LDLP_CHECK=1] environment variable (read once at
    startup) or programmatically with {!set_enabled} (used by the test
    suite).  A violated invariant raises {!Violation} — these are engine
    bugs, never user errors, so there is nothing to handle. *)

exception Violation of string

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Override the environment setting (tests; [ldlp_repro check]). *)

val check : bool -> string -> unit
(** [check cond what] raises [Violation what] when checking is enabled and
    [cond] is false.  Keep [cond] cheap: it is evaluated eagerly at the
    call site, so hot paths should guard expensive conditions with
    {!enabled} themselves. *)

val checkf : ('a -> bool) -> 'a -> string -> unit
(** [checkf cond x what] is [check (cond x) what], but [cond x] is only
    evaluated when checking is enabled — for conditions that are
    themselves O(queue length).  Passing the state as [x] lets a hot path
    name a toplevel predicate instead of allocating a closure over it. *)
