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

(** [set_tree t ~dst via] writes one destination's tree: for every node
    [u <> dst] with [via.(u) >= 0], the entry [set_next t ~node:u ~dst
    ~channel:via.(u)] would write, in node order. Entries with
    [via.(u) < 0] and [dst]'s own entry are left as they are.
    @raise Invalid_argument if [via] is not one entry per node, [dst] is
    not a terminal, or a channel does not leave its node (with
    {!set_next}'s message; the entries before it are written). *)
val set_tree : t -> dst:int -> int array -> unit

(** [next t ~node ~dst] is the forwarding entry, or [None] if unset. *)
val next : t -> node:int -> dst:int -> int option

(** [row t ~node] is [node]'s entries by destination terminal index
    ({!dst_index}), [-1] where unset: [(row t ~node).(dst_index t dst)]
    is {!next}'s channel. The allocation-free read of the table's
    destination trees. Do not mutate. *)
val row : t -> node:int -> int array

(** [path t ~src ~dst] follows the table from terminal [src] to terminal
    [dst]. [None] if an entry is missing or a forwarding loop is hit
    (a loop-free walk takes at most [num_nodes - 1] hops; reaching that
    bound without arriving proves a loop). [Some [||]] iff [src = dst]. *)
val path : t -> src:int -> dst:int -> Path.t option

(** {1 Route-store integration}

    The canonical pair-id scheme for a forwarding table is
    [src_index * num_terminals + dst_index] over the graph's dense
    terminal indices — the encoding of {!Deadlock.Route_store.Pair}. A
    per-pair array or store spans [num_terminals ^ 2] ids, covering every
    ordered pair (diagonal included but left absent). *)

(** [pair_id t ~src ~dst] is the pair id of two terminal node ids. *)
val pair_id : t -> src:int -> dst:int -> int

(** [pair_of_id t id] decodes a pair id back to terminal node ids. *)
val pair_of_id : t -> int -> int * int

(** {1 Route classes}

    Tables are destination-based, so pair [(t, d)] leaves [t] by the
    channel [e = next t d] and then follows exactly the walk of the node
    [s = head e] toward [d]. A {e route class} is such an [(s, d)]: in a
    fabric where every terminal hangs off one switch, [s] is [t]'s
    switch, and the class stands for every terminal of [s] but [d]. One
    class slice replaces all of its pairs' slices in the CDG,
    Algorithm 2, the certifier and the statistics (DESIGN.md §10). *)

type classes = private {
  store : Deadlock.Route_store.t;
      (** slice [k] is class [k]'s walk from [s] to [d], ending in [d]'s
          ejection channel; {!Deadlock.Route_store.weight} is its number
          of pairs. Entry nodes [s] are ranked by the smallest terminal
          index entering them, and class [(s, d)] has id
          [rank s * num_terminals + dst_index d] (absent when no pair
          enters it): ids follow (smallest terminal index on [s],
          destination index), the order in which a per-pair store first
          meets every switch-level dependency. *)
  class_of_pair : int array;
      (** pair id ({!pair_id}) -> class id; [-1] on the diagonal *)
  stamp : int;
      (** the table state the classes were walked from: {!create},
          {!set_next} and {!set_tree} give a table a fresh stamp, so
          {!expand}, {!class_stats} and {!set_class_layers} refuse a
          store walked from another table, or from an earlier state of
          this one *)
}

(** [to_classes t] walks every route class of [t] into a fresh arena:
    one memoised walk per destination, so each node is walked once per
    destination, then one exactly-sized arena filled class by class. A
    walk that reaches a terminal other than its destination fails (a
    terminal is an endpoint; in a fabric where each terminal hangs off
    one switch such a walk loops anyway), so no class slice holds a
    channel that leaves a terminal. [Error] names the first pair, in
    pair-id order, with no loop-free route. Every call bumps the
    [routing.class_walks] counter. *)
val to_classes : t -> (classes, string) result

(** [entry t ~src_index ~dst_index] is the channel the pair leaves its
    source by ([-1] if unset), over terminal indices. *)
val entry : t -> src_index:int -> dst_index:int -> int

(** [expand t cls] is the per-pair store of [t] rebuilt from its
    classes: pair [(t, d)]'s slice is [entry t d] followed by its class's
    slice. One exactly-sized arena, no table walk.
    @raise Invalid_argument if [cls] was not walked from [t] as it
    stands. *)
val expand : t -> classes -> Deadlock.Route_store.t

(** [to_store t] is the per-pair store of [t]: capacity [num_terminals ^ 2],
    pair ids as above, each pair's slice its {!path}. It is {!expand} of
    the class walk ({!to_classes}), the one all-pairs walk of a table.
    [Error] names the first pair (in pair-id order) with no loop-free
    route.

    Every call bumps the [routing.to_store] counter of the default
    {!Obs.Registry} (not [routing.class_walks]) and records its duration
    in the [routing.to_store_walk] timer: a table walk is a dominant cost
    of an epoch swap, so the number of them per swap is part of the
    fabric manager's contract. *)
val to_store : t -> (Deadlock.Route_store.t, string) result

(** [iter_pairs t f] calls [f ~src ~dst path] for every ordered pair of
    distinct terminals, in a deterministic order.
    @raise Failure if some pair has no path. *)
val iter_pairs : t -> (src:int -> dst:int -> Path.t -> unit) -> unit

(** {1 Virtual layers} *)

(** Layer of the route [src -> dst] (terminal node ids); 0 if never set. *)
val layer : t -> src:int -> dst:int -> int

val set_layer : t -> src:int -> dst:int -> int -> unit

(** [layer_row t ~src_index] is the layers of the pairs leaving terminal
    index [src_index]: [Bytes.get row dst_index] is {!layer}'s layer as
    a byte, and [None] means every pair rides layer 0. Do not mutate. *)
val layer_row : t -> src_index:int -> Bytes.t option

(** Layer ids are bytes: a table holds at most [max_layer_ids] (256)
    layers, ids [0 .. 255]. *)
val max_layer_ids : int

(** Number of virtual layers the assignment uses ([>= 1]). *)
val num_layers : t -> int

val set_num_layers : t -> int -> unit

(** [pair_layers t] is the layer of every pair by pair id, [-1] on the
    diagonal. *)
val pair_layers : t -> int array

(** [set_pair_layers t layer_of_pair] is the inverse of {!pair_layers}:
    every off-diagonal pair gets [layer_of_pair.(pair)]. Every layer is
    checked before any is written.
    @raise Invalid_argument if the array does not span [num_terminals ^ 2] pairs or an
    off-diagonal layer is outside [[0, 255]]. *)
val set_pair_layers : t -> int array -> unit

(** [set_class_layers t cls class_layer] gives every pair of class [k]
    the layer [class_layer.(k)] (the per-pair expansion of a class-keyed
    assignment). Every layer is checked before any is written.
    @raise Invalid_argument if [cls] was not walked from [t] as it
    stands, [class_layer] does not cover [cls]'s store, or a layer is
    outside [[0, 255]]. *)
val set_class_layers : t -> classes -> int array -> unit

(** The highest layer any pair rides (0 for a table without layers). *)
val max_layer : t -> int

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

(** [class_stats t cls] collects the statistics of [t]'s routes from its
    classes, without expanding them: a pair's hop count is 1 + its
    class's slice length, and minimality compares hop counts with reverse
    BFS distances over the enabled channels (one BFS per switch feeding
    destinations).
    @raise Invalid_argument if [cls] was not walked from [t] as it
    stands. *)
val class_stats : t -> classes -> stats

(** Check that every ordered terminal pair has a loop-free path and collect
    statistics: {!to_classes} then {!class_stats}. [Error msg] names the
    first offending pair. *)
val validate : t -> (stats, string) result

val pp_stats : Format.formatter -> stats -> unit
