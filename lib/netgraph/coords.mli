(** Cartesian coordinate metadata for grid-like topologies (meshes, tori,
    hypercubes). Dimension-order routing needs to know each switch's
    position; generators that produce grids return this alongside the
    graph. *)

type t

(** [make ~dims ~wrap] creates an empty coordinate table for a grid with
    the given per-dimension sizes; [wrap.(d)] says whether dimension [d]
    has wrap-around links (torus) or not (mesh). *)
val make : dims:int array -> wrap:bool array -> t

val dims : t -> int array
val wrap : t -> bool array

(** [set t ~node ~coord] records the position of a switch. The coordinate
    array is copied. *)
val set : t -> node:int -> coord:int array -> unit

(** [get t node] is the coordinate of [node].
    @raise Not_found if the node has no recorded position. *)
val get : t -> int -> int array

val mem : t -> int -> bool

(** [node_at t coord] inverts [get].
    @raise Not_found if no switch sits at [coord]. *)
val node_at : t -> int array -> int
