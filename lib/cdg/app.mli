(** The acyclic path partitioning (APP) problem — the paper's Section
    III-A formalisation of virtual-layer assignment — with an exact
    solver for small instances. The reduction from graph k-colorability
    that proves it NP-complete (Theorem 1) lives with the tests, which
    check both directions of the proof against this solver.

    Here a "path" is a node sequence in an abstract dependency graph [D];
    a set of path indices {e induces} the subgraph of all their nodes and
    consecutive edges. A k-cover partitions the generator into k non-empty
    classes, each inducing an acyclic subgraph. *)

type path = int array
(** Sequence of D-nodes; consecutive entries are directed edges. *)

type generator = {
  num_nodes : int;  (** D-nodes are [0 .. num_nodes-1] *)
  paths : path array;
}

(** [min_cover_exact ?max_k gen] is the smallest [k] admitting a k-cover,
    by backtracking with first-fit symmetry breaking; [None] if no cover
    with [k <= max_k] (default: number of paths) exists. Exponential —
    test-sized instances only. *)
val min_cover_exact : ?max_k:int -> generator -> int option

(** The paper's Fig. 3 instance: D-nodes a..d (0..3), paths
    [p1 = bc], [p2 = abc], [p3 = cdab]; it has a 2-cover but no 1-cover. *)
val fig3_example : generator
