(** Naive per-pair route statistics: every ordered pair of distinct
    terminals walked with {!Routing.Ftable.path}, its hop count compared
    with a reverse BFS from its destination over the enabled channels.
    The oracle that {!Routing.Ftable.class_stats}, and through it
    [Ftable.validate] and [Verify.report], are checked against. *)

(** [of_table ft] is [ft]'s statistics, or [Error] naming the first pair
    (terminal order) without a loop-free route. *)
val of_table : Routing.Ftable.t -> (Routing.Ftable.stats, string) result
