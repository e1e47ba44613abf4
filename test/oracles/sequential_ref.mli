(** The classic sequential per-destination recurrences of the balancing
    engines: route one destination, add its routes to the shared
    balancing state, move on. They are the reference for every "batch 1
    = the sequential recurrence" property; the shipped engines run the
    same recurrence through the batched driver ({!Routing.Batched}).
    Not for production use. *)

(** [sssp_destinations ?kernel g ~weights ~ft ~dsts] is SSSP over
    [dsts] in order ({!Routing.Sssp.route_destinations} at batch 1):
    entries written into [ft], loads added to [weights] after each
    destination. [kernel] defaults to the heap oracle, {!Routing.Spf.Heap}. Stops at the first failing destination; [weights] and
    [ft] keep what the destinations before it contributed. *)
val sssp_destinations :
  ?kernel:Routing.Spf.kind ->
  Graph.t ->
  weights:int array ->
  ft:Routing.Ftable.t ->
  dsts:int array ->
  (unit, string) result

(** [sssp_plane ?kernel g ~weights] is {!sssp_destinations} over every
    terminal into a fresh table ({!Routing.Sssp.route_plane} at
    batch 1). *)
val sssp_plane :
  ?kernel:Routing.Spf.kind -> Graph.t -> weights:int array -> (Routing.Ftable.t, string) result

(** MinHop ({!Routing.Minhop.route} at batch 1): each node picks the
    least-loaded min-hop channel over the live loads, which carry every
    increment made so far. Hop distances come from the heap oracle. *)
val minhop : Graph.t -> (Routing.Ftable.t, string) result

(** Up*/Down* ({!Routing.Updown.route} at batch 1). *)
val updown : Graph.t -> (Routing.Ftable.t, string) result
