(** One-shot depth-first cycle search over a {!Cdg.t}: the first cycle
    of the paper's Algorithm 2 search, which the refusal witness of a
    cyclic layer starts from. Algorithm 2 itself runs on strongly
    connected components ({!Layers}).

    Search roots run in channel-id order but skip injection channels
    (terminal to switch): no cycle consists of them alone, and skipping
    them makes the search order a function of the switch-level CDG, so a
    route-class store — which leaves the injection dependencies out —
    is searched exactly as its per-pair store. Successors are taken in
    CSR slot order. *)

(** [find cdg] is the first directed cycle the search meets, as the
    array of CDG edges [(c_i, c_j)] forming it in cycle order, or [None]
    when [cdg] is acyclic. *)
val find : Cdg.t -> (int * int) array option
