(** One arena owning every computed path of a routing: a single flat [int]
    channel buffer plus a per-pair offset/length table. Consumers read
    paths as O(1) slices of the shared buffer instead of materializing a
    fresh [int array] per query — the representation every layer of the
    system (layer assignment, verification, simulation, fabric repair)
    shares since the dense-route-store refactor (DESIGN.md §10).

    A store is created with a fixed pair capacity; pair identifiers are
    caller-chosen dense integers in [[0, capacity)]. Routing code derives
    them from terminal indices via {!Pair}; simulators use flow indices.
    Replacing a pair's path appends the new slice and abandons the old one
    (the arena is append-only; it is sized for write-once workloads).
    Producers that know every slice length up front build the finished
    arrays themselves and wrap them with {!of_arena}: one exactly-sized
    arena, no growth copies. *)

module Pair : sig
  (** Dense pair identifier: [src_index * num_terminals + dst_index] over
      terminal {e indices} (see {!Routing.Ftable.dst_index}). *)
  type id = int

  (** @raise Invalid_argument if an index is outside [[0, num_terminals)]. *)
  val encode : num_terminals:int -> src_index:int -> dst_index:int -> id

  (** [decode ~num_terminals id] is [(src_index, dst_index)]. *)
  val decode : num_terminals:int -> id -> int * int
end

type t

(** [create g ~capacity] makes an empty store with [capacity] pair slots,
    all absent. @raise Invalid_argument if [capacity < 0]. *)
val create : Graph.t -> capacity:int -> t

(** [of_paths g paths] stores path [i] under pair id [i]. *)
val of_paths : Graph.t -> Path.t array -> t

(** [of_arena ?weight g ~buf ~off ~len ~num_paths] wraps finished arrays
    as a store without copying them: pair [p] is present iff
    [len.(p) >= 0], its path being
    [buf.(off.(p)) .. buf.(off.(p) + len.(p) - 1)]. The bulk constructor
    of {!Routing.Ftable.to_store} and {!Routing.Ftable.to_classes}, which
    size [buf] to exactly the sum of their slices. [weight.(p)] is the
    number of routes slice [p] stands for (see {!weight}); omitted, every
    slice weighs 1. The store owns the arrays afterwards.
    @raise Invalid_argument if [off], [len] and [weight] differ in
    length, some length is below [-1], a present slice leaves [buf] or
    weighs less than 1, or [num_paths] is not the number of present
    slices. *)
val of_arena :
  ?weight:int array -> Graph.t -> buf:int array -> off:int array -> len:int array -> num_paths:int -> t

val graph : t -> Graph.t

(** Number of pair slots (present or absent). *)
val capacity : t -> int

(** Number of pairs currently holding a path. *)
val num_paths : t -> int

(** Whether the pair currently holds a path. *)
val mem : t -> pair:int -> bool

(** [weight t ~pair] is the number of routes slice [pair] stands for: 1
    in a per-pair store, the pair count of a route class in the store
    {!Routing.Ftable.to_classes} builds (DESIGN.md §10). {!Cdg} counts
    every dependency of the slice [weight] times, so Algorithm 2 sees the
    same edge weights as over the per-pair store. *)
val weight : t -> pair:int -> int

(** The per-slice weights, indexed by pair id, or [None] when every
    slice weighs 1. Do not mutate. *)
val weights : t -> int array option

(** {1 Producing} *)

(** [set_path t ~pair p] copies [p] into the arena (replacing any previous
    path of [pair]). The arena doubles when a write outgrows it. *)
val set_path : t -> pair:int -> Path.t -> unit

(** Mark the pair absent (its arena slice is abandoned). *)
val remove : t -> pair:int -> unit

(** {1 Reading} *)

(** Slice length of the pair's path.
    @raise Invalid_argument if the pair is absent. *)
val length : t -> pair:int -> int

(** Slice offset into {!buffer}.
    @raise Invalid_argument if the pair is absent. *)
val offset : t -> pair:int -> int

(** [get t ~pair i] is channel [i] of the pair's path. *)
val get : t -> pair:int -> int -> int

(** The shared arena. Hot loops index it directly as
    [buffer.(offset + hop)] — zero allocation per lookup. The array is
    replaced when the arena grows, so re-fetch it after any write. Its
    length is the arena's capacity, which may exceed {!total_channels}
    (growth slack, abandoned slices); a store built by {!of_arena} from
    an exactly-sized buffer has none. *)
val buffer : t -> int array

(** The per-pair slice offsets into {!buffer}, indexed by pair id. The
    entry of an absent pair is meaningless. Do not mutate. *)
val offsets : t -> int array

(** The per-pair slice lengths, indexed by pair id; [-1] marks an absent
    pair. Together with {!buffer} and {!offsets} this lets all-pairs
    scans (CDG construction, certification) walk every dependency in
    plain loops — [buf.(i), buf.(i + 1)] for [i] in
    [[off.(p), off.(p) + len.(p) - 2]] — with no call per pair or per
    dependency. Do not mutate. *)
val lengths : t -> int array

(** Fresh copy of the pair's path (for consumers that outlive the store). *)
val to_path : t -> pair:int -> Path.t

(** [iter t ~pair f] calls [f] on each channel of the pair's path. *)
val iter : t -> pair:int -> (int -> unit) -> unit

(** [iter_deps t ~pair f] calls [f c1 c2] on each consecutive channel pair
    (the path's CDG dependencies). *)
val iter_deps : t -> pair:int -> (int -> int -> unit) -> unit

(** [iter_pairs t f] calls [f pair] for every present pair, in id order. *)
val iter_pairs : t -> (int -> unit) -> unit

(** Total channels over all present paths. *)
val total_channels : t -> int
