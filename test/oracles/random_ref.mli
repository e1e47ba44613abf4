(** The random-fabric generator as first written: the spanning-tree
    phase lists every placed switch with a free port for each cable, and
    the extra-link phase filters every switch for each link. The oracle
    that {!Netgraph.Topo_random.make} is checked against bit for bit:
    the same [Rng] draws in the same order, so the same cables in the
    same order and the same channel ids. Not for production use; the
    error messages name the shipped module. *)

val make :
  switches:int ->
  switch_radix:int ->
  terminals:int ->
  inter_links:int ->
  rng:Rng.t ->
  Graph.t
