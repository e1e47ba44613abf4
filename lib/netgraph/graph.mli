(** The network fabric: an immutable directed multigraph of switches and
    terminals connected by directed channels (the [I = G(N, C)] of the
    paper). Construct one with {!Builder}. *)

type t

(** {1 Accessors} *)

val num_nodes : t -> int
val num_channels : t -> int

(** All nodes, indexed by node id. Do not mutate. *)
val nodes : t -> Node.t array

(** All channels, indexed by channel id. Do not mutate. *)
val channels : t -> Channel.t array

val node : t -> int -> Node.t
val channel : t -> int -> Channel.t

(** Channel ids leaving the given node. Do not mutate. *)
val out_channels : t -> int -> int array

(** Channel ids entering the given node. Do not mutate. *)
val in_channels : t -> int -> int array

(** Ids of all switch nodes. Do not mutate. *)
val switches : t -> int array

(** Ids of all terminal nodes. Do not mutate. *)
val terminals : t -> int array

val num_switches : t -> int
val num_terminals : t -> int

(** [reverse_channel g c] is the id of the opposite-direction channel of the
    same physical cable, if the cable was added bidirectionally. *)
val reverse_channel : t -> int -> int option

val is_switch : t -> int -> bool
val is_terminal : t -> int -> bool

(** {1 Flat endpoint arrays}

    Computed once per graph, for inner loops that would otherwise chase
    {!channel} records. Do not mutate. *)

(** [heads g] maps each channel id to its destination node
    ([(channel g c).dst]), disabled channels included. *)
val heads : t -> int array

(** [tails g] maps each channel id to its source node
    ([(channel g c).src]), disabled channels included. *)
val tails : t -> int array

(** [attached g] maps each node to the one node it is single-homed on,
    or [-1]: [(attached g).(v) = s] iff [v] is a terminal with at least
    one enabled channel and every enabled channel in or out of [v] joins
    it to [s <> v] (parallel cables included). Such a terminal cannot
    relay a shortest path between two other nodes: any walk through it
    enters from [s] and leaves to [s]. Recomputed by {!with_enabled},
    so a dual-homed terminal whose second cable is disabled becomes
    attached. *)
val attached : t -> int array

(** {1 Turn numbering}

    A turn is a pair of channels (c1, c2) where c2 leaves the node c1
    enters: the only pairs a route can make a dependency of. Turns are
    numbered densely over every channel, disabled ones included, so a
    graph and its {!with_enabled} views share one numbering, which
    {!with_enabled} keeps unchanged. Computed once per graph, for turn
    bitsets (the certifier's per-layer dependencies, the online
    placement's accepted edges). Do not mutate. *)

(** [leaving_start g] has length [num_nodes g + 1]: the channels
    leaving [v], disabled ones included, are [(leaving g).(i)] for
    [leaving_start.(v) <= i < leaving_start.(v + 1)], in id order. *)
val leaving_start : t -> int array

(** The channels grouped by source node; see {!leaving_start}. *)
val leaving : t -> int array

(** [turn_slot g] maps channel [c] to its index among the channels
    leaving its source: [(leaving g).((leaving_start g).(v) + slot.(c)) = c]
    for [v = (tails g).(c)]. *)
val turn_slot : t -> int array

(** [turn_base g] has length [num_channels g + 1]: turn (c1, c2) has id
    [turn_base.(c1) + (turn_slot g).(c2)], and [turn_base.(num_channels g)]
    is the number of turns. *)
val turn_base : t -> int array

(** {1 Channel enablement}

    Every channel exists forever under its original id; a channel may
    additionally be {e disabled}, which removes it from the adjacency
    arrays (so graph algorithms route around it) while keeping
    {!channels}, {!reverse_channel} and all ids untouched. This is the
    substrate for id-stable fault injection ({!Degrade.disable_cable})
    and the incremental re-routing of the fabric manager. *)

(** [channel_enabled g c] is [true] unless [c] was disabled by
    {!with_enabled}. *)
val channel_enabled : t -> int -> bool

(** [with_enabled g ~enabled] is [g] with exactly the channels whose mask
    entry is [true] present in the adjacency arrays. Nodes, channels,
    ids, {!heads}, {!tails} and the turn numbering are shared unchanged; {!attached} is
    recomputed; the mask is copied.
    @raise Invalid_argument if the mask length differs from
    [num_channels g]. *)
val with_enabled : t -> enabled:bool array -> t

(** {1 Graph algorithms} *)

(** [bfs_dist g src] is the array of hop distances from node [src]
    ([max_int] for unreachable nodes). *)
val bfs_dist : t -> int -> int array

(** [connected g] is [true] iff every node can reach every other node. *)
val connected : t -> bool

(** Longest shortest-path hop count over all node pairs ([0] for a
    single-node graph). @raise Invalid_argument if the graph is empty or
    disconnected. *)
val diameter : t -> int

(** [degree g v] is the number of outgoing channels of [v]. *)
val degree : t -> int -> int

(** {1 Consistency} *)

(** Structural invariants: ids dense and consistent, adjacency symmetric
    with the channel array, terminals attached to exactly one switch by a
    bidirectional link. Returns [Error msg] describing the first violation. *)
val validate : t -> (unit, string) result

val pp_stats : Format.formatter -> t -> unit

(** {1 Construction (used by {!Builder})} *)

val make :
  nodes:Node.t array ->
  channels:Channel.t array ->
  reverse:int array ->
  t
