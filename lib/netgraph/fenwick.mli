(** Fenwick (binary indexed) trees of ints over positions [0 .. n-1]:
    point updates and prefix sums in O(log n), and a descent that finds
    the longest prefix satisfying a monotone predicate in O(log n). The
    seeded generators ({!Topo_jellyfish}, {!Topo_random}) draw the k-th
    candidate through them instead of listing every candidate. *)

type t

(** [create n]: [n] positions, all 0. *)
val create : int -> t

(** [add t i d] adds [d] at position [i]. *)
val add : t -> int -> int -> unit

(** [prefix t p] is the sum over positions [0 .. p-1]. *)
val prefix : t -> int -> int

(** [search a b ok] is the largest [p] in [0 .. n] such that
    [ok (prefix a p) (prefix b p)] holds, for two trees of the same
    size. [ok] must be monotone: true on every prefix up to some length
    and false beyond it ([ok 0 0] is assumed). *)
val search : t -> t -> (int -> int -> bool) -> int

(** [select t k] is the position of the [k]-th unit (0-based) of a tree
    whose positions hold 0 or 1: the smallest [i] with
    [prefix t (i + 1) > k]. *)
val select : t -> int -> int
