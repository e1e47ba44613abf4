(** Directed communication channels. A physical cable between two nodes is
    modelled, as in the paper, by two directed channels (one per
    direction); parallel cables yield parallel channels (the network is a
    directed multigraph). *)

type t = {
  id : int;  (** dense id, index into the graph's channel array *)
  src : int;  (** source node id *)
  dst : int;  (** destination node id *)
}
