(** Destination-based forwarding tables — the analogue of InfiniBand linear
    forwarding tables (LFTs) that OpenSM programs into every switch — plus
    the per-route virtual-layer assignment computed by deadlock-free
    algorithms (the analogue of the SL/VL mapping).

    Destinations are terminals; [next t ~node ~dst] is the channel a packet
    standing at [node] takes toward terminal [dst]. Routes are therefore
    trees per destination, exactly as in the paper's oblivious
    routing-function model [R : C x N -> C]. *)

type t

(** [create g ~algorithm] makes an empty table (no routes, 1 layer). *)
val create : Graph.t -> algorithm:string -> t

val graph : t -> Graph.t
val algorithm : t -> string

(** [dst_index t node] is the dense terminal index of a terminal node id.
    @raise Invalid_argument if [node] is not a terminal. *)
val dst_index : t -> int -> int

(** [set_next t ~node ~dst ~channel] routes traffic for terminal [dst]
    standing at [node] into [channel].
    @raise Invalid_argument if [channel] does not leave [node] or [dst] is
    not a terminal. *)
val set_next : t -> node:int -> dst:int -> channel:int -> unit

(** [next t ~node ~dst] is the forwarding entry, or [None] if unset. *)
val next : t -> node:int -> dst:int -> int option

(** [path t ~src ~dst] follows the table from terminal [src] to terminal
    [dst]. [None] if an entry is missing or a forwarding loop is hit
    (a loop-free walk takes at most [num_nodes - 1] hops; reaching that
    bound without arriving proves a loop). [Some [||]] iff [src = dst]. *)
val path : t -> src:int -> dst:int -> Path.t option

(** {1 Route-store integration}

    The canonical pair-id scheme for a forwarding table is
    [src_index * num_terminals + dst_index] over the graph's dense
    terminal indices — the encoding of {!Deadlock.Route_store.Pair}. *)

(** [num_pairs t] is [num_terminals ^ 2], the store capacity covering
    every ordered pair (diagonal included but left absent). *)
val num_pairs : t -> int

(** [pair_id t ~src ~dst] is the pair id of two terminal node ids. *)
val pair_id : t -> src:int -> dst:int -> int

(** [pair_of_id t id] decodes a pair id back to terminal node ids. *)
val pair_of_id : t -> int -> int * int

(** [path_into t store ~pair ~src ~dst] streams the forwarding walk for
    [src -> dst] directly into [store] under [pair] — no intermediate
    path array. Returns [false] (store unchanged for that pair) if an
    entry is missing or a loop is hit. [src = dst] stores the empty
    path. *)
val path_into : t -> Deadlock.Route_store.t -> pair:int -> src:int -> dst:int -> bool

(** [to_store t] walks every ordered pair of distinct terminals into a
    fresh arena of capacity {!num_pairs}, pair ids as above; each pair's
    slice is its {!path}. [Error] names the first pair
    (in pair-id order) with no loop-free route.

    Two passes. The first follows the tables toward each destination in
    turn, memoising every node's hop count, so each node is walked once
    per destination; a node revisited while still on the current walk
    proves a forwarding loop and a missing entry a dead end (the same
    verdicts as {!path}'s hop-limit walk, since a loop-free walk takes at
    most [num_nodes - 1] hops). The second allocates one arena of exactly
    the summed hop counts — [Array.length (Route_store.buffer s)] equals
    [Route_store.total_channels s] — and fills the slices in pair order.

    Every call bumps the [routing.to_store] counter of the default
    {!Obs.Registry} and records its duration in the
    [routing.to_store_walk] timer: a full walk is the dominant cost of an
    epoch swap, so the number of them per swap is part of the fabric
    manager's contract. *)
val to_store : t -> (Deadlock.Route_store.t, string) result

(** [iter_pairs t f] calls [f ~src ~dst path] for every ordered pair of
    distinct terminals, in a deterministic order.
    @raise Failure if some pair has no path. *)
val iter_pairs : t -> (src:int -> dst:int -> Path.t -> unit) -> unit

(** {1 Virtual layers} *)

(** Layer of the route [src -> dst] (terminal node ids); 0 if never set. *)
val layer : t -> src:int -> dst:int -> int

val set_layer : t -> src:int -> dst:int -> int -> unit

(** Number of virtual layers the assignment uses ([>= 1]). *)
val num_layers : t -> int

val set_num_layers : t -> int -> unit

(** [layers_of_store t store] is the layer of every pair present in
    [store], indexed by pair id over the store's capacity; absent pairs
    carry [-1]. [store] must use this table's pair ids ({!to_store}). *)
val layers_of_store : t -> Deadlock.Route_store.t -> int array

(** [set_layers_of_store t store layer_of_path] is the inverse of
    {!layers_of_store}: it writes [layer_of_path.(pair)] as the layer of
    every pair present in [store], by pair id, and leaves absent pairs
    alone. [store] must use this table's pair ids ({!to_store}).
    @raise Invalid_argument if the store or [layer_of_path] does not span
    {!num_pairs}, or a present pair's layer is outside [[0, 255]]. *)
val set_layers_of_store : t -> Deadlock.Route_store.t -> int array -> unit

(** {1 Diffing} *)

type diff = {
  dsts_changed : int;  (** destinations with at least one rewritten entry *)
  entries_changed : int;  (** total [(node, dst)] entries that differ *)
  per_dst : (int * int) array;
      (** (terminal id, changed entries) for each changed destination, in
          terminal order *)
}

(** [diff a b] compares the forwarding entries of two tables over fabrics
    with identical node and terminal ids — e.g. before and after an
    id-stable topology event ({!Netgraph.Degrade.disable_cable}). The
    per-destination counts are what a subnet manager would push to each
    switch on a table swap.
    @raise Invalid_argument if node counts or terminal ids differ. *)
val diff : t -> t -> diff

(** {1 Validation} *)

type stats = {
  pairs : int;  (** routed ordered pairs *)
  max_hops : int;
  avg_hops : float;
  minimal : bool;  (** every route has min-hop length *)
}

(** [store_stats t store] collects the statistics of a complete store of
    [t]'s routes (as {!to_store} returns it) without walking the tables
    again: hop counts are the slice lengths, and minimality compares them
    with one reverse BFS per destination over the enabled channels.
    @raise Invalid_argument if [store] lacks some pair of [t]. *)
val store_stats : t -> Deadlock.Route_store.t -> stats

(** Check that every ordered terminal pair has a loop-free path and collect
    statistics: {!to_store} then {!store_stats}. [Error msg] names the
    first offending pair. *)
val validate : t -> (stats, string) result

val pp_stats : Format.formatter -> stats -> unit
