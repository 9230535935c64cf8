(** Seeded random-regular mesh topologies.

    The many-host simulator wires its hosts over a random [degree]-regular
    graph — the standard abstraction for peer-to-peer spread measurements
    (every host has the same fan-out, no hubs, small diameter with high
    probability).  Generation uses the pairing (configuration) model:
    [degree] stubs per host are shuffled with the seeded {!Ldlp_sim.Rng}
    and matched pairwise; matchings with self-loops or parallel edges are
    rejected and re-drawn, and so are disconnected graphs, so the result
    is always a {e simple connected} [degree]-regular graph.

    Everything is a pure function of [(hosts, degree, seed)]: no global
    RNG, no wall clock, no domain-count dependence — the property suite
    holds the generator to exactly that. *)

type t = private {
  hosts : int;
  degree : int;
  edges : (int * int) array;
      (** Canonical form: each edge [(u, v)] with [u < v], sorted
          lexicographically.  [Array.length edges = hosts * degree / 2]. *)
  adj : int array array;
      (** [adj.(h)] lists [h]'s neighbours in ascending order;
          [Array.length adj.(h) = degree] for every [h]. *)
}

val generate : hosts:int -> degree:int -> seed:int -> t
(** Raises [Invalid_argument] unless [2 <= hosts], [1 <= degree < hosts]
    and [hosts * degree] is even (a [degree]-regular graph on [hosts]
    vertices exists exactly under these conditions).  Degree
    [hosts - 1] yields the complete graph, the only one of that degree,
    without drawing from [seed].  Degree 1 and 2 are
    accepted (a perfect matching / union of cycles) but may need many
    redraws to come out connected; the spread experiments use
    [degree >= 3], where almost every draw is already connected. *)

val neighbors : t -> int -> int array
(** [neighbors t h] is [t.adj.(h)] (not a copy; do not mutate). *)

val edge_count : t -> int

val directed_index : t -> src:int -> dst:int -> int
(** A dense index in [[0, 2 * edge_count)] for the directed link
    [src -> dst]; raises [Invalid_argument] if the edge does not exist.
    Used to key per-direction impairment engines and their seeds. *)

val is_connected : t -> bool
(** Always true for {!generate} output; exposed so the property suite
    checks the invariant rather than trusting it. *)

val eccentricity : t -> int -> int
(** BFS depth from the given host to the farthest host — a cheap
    topology summary for the rendered tables. *)
