(** Extended generalized fat trees XGFT(h; m_1..m_h; w_1..w_h)
    (Öhring et al.), the topology of the paper's Fig. 5 sweep.

    Levels run 0..h; level-0 nodes are leaf switches. A level-i node has
    [m_i] children at level i-1 and [w_(i+1)] parents at level i+1. The
    number of level-i nodes is [(m_(i+1)*...*m_h) * (w_1*...*w_i)];
    in particular there are [m_1*...*m_h] leaf switches and
    [w_1*...*w_h] roots. *)

(** [make ~ms ~ws ~endpoints] builds XGFT(h; ms; ws) with [h = Array.length
    ms] and distributes [endpoints] terminals round-robin over the leaf
    switches (the paper attaches nominal endpoint counts, e.g. 1024, to
    leaf-switch arrays whose size does not divide them).
    @raise Invalid_argument if [ms]/[ws] lengths differ, any entry < 1,
    [h = 0], or [endpoints < 0]. *)
val make : ms:int array -> ws:int array -> endpoints:int -> Graph.t

(** Leaf-switch count [m_1*...*m_h]. *)
val num_leaves : ms:int array -> int
