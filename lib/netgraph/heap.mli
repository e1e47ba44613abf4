(** Indexed binary min-heap over integer elements [0 .. capacity-1] with
    integer priorities and decrease-key, as required by Dijkstra's
    algorithm over dense node-id spaces.

    {b Reuse across runs.} A single heap is meant to be allocated once per
    workspace and reused for every shortest-path tree: [clear] is O(1) (it
    bumps an internal generation counter instead of walking the occupied
    slots), so per-destination reuse costs nothing beyond the live
    elements actually pushed.

    {b Who uses it.} [Routing.Spf]'s heap core (the kernel the bucket
    kernel is checked against) runs decrease-key Dijkstra through
    [insert_or_decrease], so each element is resident at most once. The
    bucket kernel, [Spf.bucket_core], does not use this heap: it keeps
    Dial buckets of its own. *)

type t

(** [create capacity] makes an empty heap able to hold elements
    [0 .. capacity-1]. *)
val create : int -> t

(** Number of elements currently in the heap. *)
val size : t -> int

(** [mem t x] is [true] iff [x] is currently in the heap. *)
val mem : t -> int -> bool

(** [insert t x p] adds [x] with priority [p].
    @raise Invalid_argument if [x] is already present or out of range. *)
val insert : t -> int -> int -> unit

(** [insert_or_decrease t x p] inserts [x], or decreases its key if present
    and [p] improves on it; a no-op if [p] is not an improvement. *)
val insert_or_decrease : t -> int -> int -> unit

(** [pop_min t] removes and returns the element with the smallest priority
    (ties broken arbitrarily but deterministically). *)
val pop_min : t -> (int * int) option

(** Remove all elements in O(1): the current generation is invalidated
    wholesale rather than walking the occupied slots, so clearing a heap
    between destinations is free regardless of how full it was. *)
val clear : t -> unit
