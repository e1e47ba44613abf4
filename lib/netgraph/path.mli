(** Routes through the fabric, represented as the sequence of channel ids a
    message traverses (the paper's path [p = c_0 c_1 ... c_n] in the
    channel-dependency world). *)

type t = int array

(** [source g p] is the node the path starts at.
    @raise Invalid_argument on an empty path. *)
val source : Graph.t -> t -> int

(** [target g p] is the node the path ends at.
    @raise Invalid_argument on an empty path. *)
val target : Graph.t -> t -> int

(** Number of channels (hops). *)
val length : t -> int

(** [node_sequence g p] is the node ids visited, length [length p + 1]. *)
val node_sequence : Graph.t -> t -> int array

(** [is_consistent g p] checks the channels chain head-to-tail. *)
val is_consistent : Graph.t -> t -> bool

(** [is_simple g p] additionally checks that no node repeats. *)
val is_simple : Graph.t -> t -> bool

(** [dependencies p] is the list of consecutive channel pairs
    [(c_i, c_{i+1})] — the CDG edges the path induces. *)
val dependencies : t -> (int * int) list
