(** Kautz-graph networks (paper Fig. 6): switches form the Kautz graph
    K(b, n) — words of length [n] over an alphabet of [b+1] symbols with
    no two consecutive symbols equal, arcs (s_1..s_n) -> (s_2..s_n, x) —
    and terminals are distributed over the switches.

    The Kautz graph is directed; cables are full duplex, so we lay one
    bidirectional cable per unordered switch pair that carries at least
    one arc (mutual arcs share one cable). *)

(** [make ~b ~n ~endpoints] builds K(b, n) with [(b+1) * b^(n-1)] switches
    and [endpoints] terminals distributed round-robin.
    @raise Invalid_argument if [b < 2], [n < 1], or [endpoints < 0]. *)
val make : b:int -> n:int -> endpoints:int -> Graph.t

(** [(b+1) * b^(n-1)].
    @raise Invalid_argument if [n < 1]. *)
val num_switches : b:int -> n:int -> int
