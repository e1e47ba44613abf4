(** Disjoint-set union (union-find) with path compression and union by
    rank. Used by the random-topology generator to guarantee connectivity. *)

type t

val create : int -> t

(** Representative of the set containing [x]. *)
val find : t -> int -> int

(** [union t a b] merges the sets of [a] and [b]; returns [true] iff they
    were previously distinct. *)
val union : t -> int -> int -> bool

(** Number of disjoint sets remaining. *)
val count : t -> int
