(** Random irregular topologies, as used in the paper's Fig. 9 virtual-lane
    study and the heuristic comparison of Section IV: a fixed population of
    switches with a port budget, terminals spread evenly, and a random —
    but connected — set of inter-switch cables. *)

(** [make ~switches ~switch_radix ~terminals ~inter_links ~rng] builds a
    connected random fabric. Terminals are distributed round-robin over
    switches; the remaining ports form the budget for the [inter_links]
    inter-switch cables. The first [switches - 1] cables form a uniform
    random spanning tree; the rest connect uniformly random switch pairs
    with free ports (parallel cables allowed, as in real fabrics). Each
    cable is one draw over the switches with free ports, indexed by a
    Fenwick tree: O((switches + inter_links) log switches) time, O(switches)
    memory besides the graph.
    @raise Invalid_argument if parameters are non-positive where required,
    [inter_links < switches - 1] (connectivity impossible), or the port
    budget cannot accommodate terminals plus cables. *)
val make :
  switches:int ->
  switch_radix:int ->
  terminals:int ->
  inter_links:int ->
  rng:Rng.t ->
  Graph.t
