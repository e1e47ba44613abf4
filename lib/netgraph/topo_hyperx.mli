(** HyperX / flattened-butterfly topologies (Ahn et al.): switches sit on
    a D-dimensional lattice and each "row" of every dimension is fully
    connected — a hypercube generalisation with radix-k dimensions and
    diameter D. Another arbitrary-topology stress case: minimal routes
    (one hop per offending dimension) create rich channel dependencies
    that no dimension-ordered scheme covers once links fail. *)

(** [make ~dims ~terminals_per_switch] builds the lattice with full
    per-dimension connectivity; returns the fabric and switch coordinates
    (dimension order routing applies, wrap-free: every in-row hop is
    direct). @raise Invalid_argument on empty dims or sizes < 2. *)
val make : dims:int array -> terminals_per_switch:int -> Graph.t * Coords.t
