(** The manager's rescue path: when a full recompute after an id-stable
    topology event fails (typically by running out of virtual layers),
    re-route only the destinations whose forwarding trees the event
    touched and keep every other route and its layer. This is the paper's
    online, path-at-a-time placement seeded with the previous assignment
    ({!Deadlock.Online.assign_store} with [~seed]); it is slower than the
    offline recompute, but it can fit within [max_layers] where the
    offline pass could not.

    Soundness rests on two properties of the surrounding machinery:
    - routing is destination-based, so a destination whose tree avoids
      every failed channel keeps a valid tree verbatim;
    - layer assignment is per (src, dst) route, so kept routes keep their
      layers and only re-routed pairs need placing.

    Every patched table still goes through the epoch gate before the
    manager swaps it in. *)

(** [affected_destinations ft ~channels] is the terminals whose forwarding
    tree in [ft] uses any channel in [channels] — the destinations that
    must be re-routed when those channels fail. Empty for channels that
    were just restored, since [ft] cannot use them. *)
val affected_destinations : Ftable.t -> channels:int list -> int list

(** [patch ~graph ~old ~dsts ~weights ~max_layers ()] builds a fresh table
    on [graph], which must share node and channel ids with [old]'s fabric.
    Forwarding trees of destinations outside [dsts] are copied verbatim.
    Each destination in [dsts] is re-routed by one {!Sssp.route_destination}
    step, in order, over [weights] (mutated in place). The manager passes
    its own weight state, which is the one its failed full recompute left
    behind: that recompute reset the weights and routed the whole current
    fabric before its cycle breaking failed, so the rescued destinations
    balance against that fresh routing's load, not the kept trees'.
    The table is then walked once ({!Ftable.to_store}); kept pairs keep
    their layer in [old] and the re-routed pairs are placed online around
    them. [Error] if a destination is unreachable or the placement needs
    more than [max_layers] layers. [kernel] selects the shortest-path core
    (default {!Spf.Auto}; DESIGN.md §15) and never changes the table. *)
val patch :
  ?kernel:Spf.kind ->
  graph:Graph.t ->
  old:Ftable.t ->
  dsts:int list ->
  weights:int array ->
  max_layers:int ->
  unit ->
  (Ftable.t, string) result
