(** Naive hashtable CDG: one [Hashtbl] per channel, pair membership as
    plain lists — the representation {!Cdg} used before the CSR refactor.
    Kept as the oracle for the representation-equivalence property tests
    and as the baseline of the [bench/cdg_bench] microbenchmark. Not for
    production use: [Deadlock.Cdg] is the real thing. *)

type t

val create : Graph.t -> t
val graph : t -> Graph.t
val add_path : t -> pair:int -> Path.t -> unit

(** @raise Invalid_argument if an edge is absent or the pair is not among
    its inducers. *)
val remove_path : t -> pair:int -> Path.t -> unit

val live : t -> c1:int -> c2:int -> bool
val edge_count : t -> c1:int -> c2:int -> int
val edge_pairs : t -> c1:int -> c2:int -> int list
val successors : t -> int -> int array
val num_edges : t -> int
val num_paths : t -> int
val iter_edges : t -> (int -> int -> int -> unit) -> unit
