(** Reconstructions of the six real-world InfiniBand systems evaluated in
    the paper (Figs. 4, 8, 10, 12–16). Exact cable lists of the original
    machines are not public; these stand-ins rebuild the same *classes* of
    fabric at the same scale from the published descriptions — fat-tree
    islands, monolithic Clos "director" switches (which are internally
    2-level Clos networks of 24-port chips), service nodes with redundant
    links, and inter-island trunks. See DESIGN.md §2 for the substitution
    rationale.

    Large systems accept [?scale] (default 1 = full size): node and trunk
    counts are divided by [scale] so the default benches finish quickly;
    pass [~scale:1] to reproduce at full published size. *)

type system = {
  name : string;
  graph : Graph.t;
  description : string;
}

(** Deimos (TU Dresden): 724 nodes over three 288-port director switches
    connected in a chain by 2 x 15 trunk cables (paper Fig. 11). *)
val deimos : ?scale:int -> unit -> system

(** All six systems, in the paper's Fig. 4 order, at the given scale. *)
val all : ?scale:int -> unit -> system list

(** [by_name ?scale name] looks a system up case-insensitively. *)
val by_name : ?scale:int -> string -> system option
