(** Mutable builder for {!Graph.t}. Topology generators add switches,
    terminals and (bidirectional) links and then freeze the result. *)

type t

val create : unit -> t

(** [add_switch t ~name] returns the new switch's node id. *)
val add_switch : t -> name:string -> int

(** [add_terminal t ~name ~switch] creates a terminal attached to [switch]
    with a bidirectional link, and returns its node id. *)
val add_terminal : t -> name:string -> switch:int -> int

(** [add_link t a b] adds a bidirectional cable (two paired directed
    channels) between nodes [a] and [b]; returns the two channel ids
    [(a_to_b, b_to_a)]. Parallel cables are allowed.
    @raise Invalid_argument on self links or unknown node ids. *)
val add_link : t -> int -> int -> int * int

(** The most parallel cables a topology file may state between one node
    pair (255). No generator or corpus file comes near it; the parsers
    ({!Serial}, {!Topo_import}) refuse a larger count, with its line
    number, before they add any cable. *)
val max_multiplicity : int

(** [link_count t a b] is the number of cables currently between [a] and
    [b] (in either direction orientation — cables are symmetric). *)
val link_count : t -> int -> int -> int

val num_nodes : t -> int

(** Freeze into an immutable graph. The builder may not be reused after. *)
val build : t -> Graph.t
