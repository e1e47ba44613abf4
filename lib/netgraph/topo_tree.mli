(** k-ary n-trees (Petrini/Vanneschi fat trees), the topology of the
    paper's Fig. 7 runtime sweep. *)

(** [make ~k ~n ?endpoints ()] builds a k-ary n-tree: [n] switch levels of
    [k^(n-1)] switches each; level [n-1] switches are leaves. By default
    every leaf switch carries [k] terminals (the canonical [k^n]
    processing nodes); [endpoints] overrides the total terminal count,
    distributed round-robin over leaf switches (the paper sizes networks
    by nominal endpoint counts).
    @raise Invalid_argument if [k < 2], [n < 1], or [endpoints < 0]. *)
val make : k:int -> n:int -> ?endpoints:int -> unit -> Graph.t
