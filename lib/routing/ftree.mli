(** Fat-tree routing, modelled on OpenSM's ftree: on a leveled tree fabric
    (k-ary n-tree, XGFT), route up toward the first common ancestor —
    choosing up-ports by destination index so destinations spread over the
    spine (d-mod-k) — then down along the unique descending path.
    Deadlock-free (routes are up*/down* by construction) with one virtual
    layer, but only applicable to tree-like fabrics: any non-tree fabric
    is rejected, mirroring the failed FatTree bars in the paper's Fig. 4. *)

(** [route g] fails with a descriptive message if the fabric is not a
    leveled fat tree (a switch-switch cable must span exactly one level,
    and every up-walk must end at an ancestor of the destination).

    d-mod-k spreading makes every destination independent of the others,
    so [domains] (default 1) parallelizes the fill with no snapshotting;
    tables are identical for any [domains]. *)
val route : ?domains:int -> Graph.t -> (Ftable.t, string) result

(** Levels as ftree sees them: distance of each switch from the leaf
    (terminal-holding) layer; exposed for tests. Fails on fabrics without
    terminals. *)
val levels : Graph.t -> (int array, string) result
