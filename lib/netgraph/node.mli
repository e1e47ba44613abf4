(** Network nodes: switches (forwarding elements) and terminals
    (compute endpoints, the InfiniBand HCAs of the paper). *)

type kind =
  | Switch
  | Terminal

type t = {
  id : int;  (** dense id, index into the graph's node array *)
  kind : kind;
  name : string;  (** human-readable label, e.g. ["sw3"] or ["n17"] *)
}

val is_switch : t -> bool
val is_terminal : t -> bool
val kind_to_string : kind -> string
