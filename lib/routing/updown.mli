(** Up*/Down* routing: a BFS spanning tree orients every channel "up"
    (toward the root) or "down"; legal routes climb zero or more up
    channels and then descend zero or more down channels, which provably
    leaves the channel dependency graph acyclic — deadlock-free with a
    single virtual layer, at the price of longer-than-minimal routes and
    congestion near the root (the classic trade-off the paper measures). *)

(** [route g] picks the root switch minimizing eccentricity and builds
    legal, consistent, near-minimal forwarding tables (see DESIGN.md for
    the down-mode consistency rule). Fails on disconnected fabrics.

    [batch]/[domains] (both default 1) select the batched-snapshot
    pipeline of DESIGN.md section 12: the load counters behind the
    equal-length tie-break are frozen per batch of [batch] destinations.
    [~batch:1] reproduces the sequential tables bit-for-bit; for any
    fixed [batch] the result is independent of [domains]. *)
val route : ?batch:int -> ?domains:int -> Graph.t -> (Ftable.t, string) result
