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

(** {1 Generated fabric sizes}

    Every topology generator computes its size from its parameters
    before it allocates anything, and refuses a fabric of more than
    [max_nodes] nodes (switches plus terminals): 2^20 = 1048576, far beyond any fabric the routing engines
    can serve (a graph of that size takes about half a gigabyte to build),
    and small enough that the size arithmetic cannot overflow. *)

val max_nodes : int

(** [size_product factors] is the product of the non-negative [factors],
    saturated at [max_nodes + 1]. *)
val size_product : int list -> int

(** [size_power base e] is [base] to the [e >= 0], saturated at
    [max_nodes + 1]. *)
val size_power : int -> int -> int

(** [check_nodes ~what n] accepts a fabric of [n] nodes.
    @raise Invalid_argument naming [what] and the bound if
    [n > max_nodes]. *)
val check_nodes : what:string -> int -> unit

(** Freeze into an immutable graph. The builder may not be reused after. *)
val build : t -> Graph.t
