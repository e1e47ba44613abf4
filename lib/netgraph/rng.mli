(** Deterministic pseudo-random number generator (splitmix64).

    All stochastic parts of the library (random topologies, random bisection
    patterns, heuristic tie-breaking) draw from an explicit [Rng.t] so that
    every experiment is reproducible from a seed, independently of the
    global [Stdlib.Random] state. *)

type t

(** [create seed] makes a fresh generator. Equal seeds give equal streams. *)
val create : int -> t

(** [copy t] is an independent generator with the same current state. *)
val copy : t -> t

(** [split t] derives a new generator from [t], advancing [t]. Streams of
    the parent and child are statistically independent. *)
val split : t -> t

(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)
val int : t -> int -> int

(** [float t bound] is uniform in [\[0, bound)]. *)
val float : t -> float -> float

(** [shuffle t a] permutes [a] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit

(** [pick t a] is a uniformly random element of [a].
    @raise Invalid_argument on an empty array. *)
val pick : t -> 'a array -> 'a

(** [sample_distinct t ~n ~bound] draws [n] distinct values from
    [\[0, bound)]. @raise Invalid_argument if [n > bound] or [n < 0]. *)
val sample_distinct : t -> n:int -> bound:int -> int array
