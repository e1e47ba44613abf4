(** Resumable depth-first cycle search over a {!Cdg.t} — the engine of the
    paper's offline Algorithm 2. After a cycle is reported and the caller
    breaks it by relocating routes (removing edges), the search continues
    from where it stopped instead of restarting: edges are only ever
    removed while a layer is processed, removal cannot create cycles, so
    finished ("black") regions stay certified and only the invalidated
    part of the DFS stack is re-explored. This is what makes offline
    DFSSSP need one amortized traversal per layer. Each stack frame is a
    cursor into its channel's CSR row of the CDG, which never grows, so
    no successor list is copied.

    Search roots run in channel-id order but skip injection channels
    (terminal to switch): no cycle consists of them alone, and skipping
    them makes the search order a function of the switch-level CDG, so a
    route-class store — which leaves the injection dependencies out —
    is searched exactly as its per-pair store. *)

type t

(** Start a search over [cdg]. Removing pairs from [cdg] while the
    search lives is allowed but must be followed by {!notify_removed}
    before the next {!find_cycle}. *)
val create : Cdg.t -> t

(** [find_cycle t] returns the next directed cycle, as the array of CDG
    edges [(c_i, c_j)] forming it (each live at return time), or [None]
    when the remaining graph is acyclic. Calling it again without removing
    an edge of the reported cycle will return the same cycle. *)
val find_cycle : t -> (int * int) array option

(** Tell the search that the caller removed edges: the DFS stack is
    truncated at the first stack edge that died, and the cut-off suffix is
    reverted to unvisited. *)
val notify_removed : t -> unit
