(** Routes through the fabric, represented as the sequence of channel ids a
    message traverses (the paper's path [p = c_0 c_1 ... c_n] in the
    channel-dependency world). *)

type t = int array

(** Number of channels (hops). *)
val length : t -> int

(** [node_sequence g p] is the node ids visited, length [length p + 1]. *)
val node_sequence : Graph.t -> t -> int array
