(** Dimension-order routing (DOR) for grid fabrics: correct the position
    one dimension at a time, taking the shorter way around wrap-around
    dimensions. As in OpenSM, no virtual-channel escape is applied, so DOR
    is deadlock-free on meshes but {e not} on tori — the paper's example
    of a specialized algorithm whose guarantees evaporate off its home
    topology. *)

(** [route g coords] requires every switch to carry a coordinate.
    Fails if the grid metadata is incomplete or a required neighbour
    channel is missing.

    Forwarding is a pure function of coordinates, so [domains] (default
    1) parallelizes the per-destination fills with no snapshotting;
    tables are identical for any [domains]. *)
val route : ?domains:int -> Graph.t -> Coords.t -> (Ftable.t, string) result
