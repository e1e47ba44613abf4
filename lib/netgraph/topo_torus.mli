(** k-ary n-cube (torus) and mesh topologies with coordinate metadata for
    dimension-order routing. Both build a grid of switches with
    per-dimension sizes [dims] and return the fabric and the switch
    coordinates; a size-2 dimension never wraps (the wrap cable would
    duplicate the existing one).
    @raise Invalid_argument on empty dims or sizes < 1. *)

(** [torus ~dims ~terminals_per_switch] wraps every dimension. *)
val torus : dims:int array -> terminals_per_switch:int -> Graph.t * Coords.t

(** [mesh ~dims ~terminals_per_switch] wraps no dimension. *)
val mesh : dims:int array -> terminals_per_switch:int -> Graph.t * Coords.t
