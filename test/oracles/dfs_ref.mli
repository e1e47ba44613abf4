(** The paper's Algorithm 2 as first written: one cycle at a time, over
    the whole layer's CDG. A resumable depth-first search finds a cycle,
    the heuristic picks one of its edges, every route on that edge moves
    to the next layer, and the search resumes where it stopped. It is the
    oracle the shipped SCC engine ({!Deadlock.Layers}) is validated
    against: the engine's layer count equals the oracle's on the paper's
    Figs. 9/10 fabrics and is at most one more anywhere the tests look.
    Not for production use.

    It runs over shipped {!Cdg.of_store} builds, which never change; the
    removals live in a per-layer overlay ({!Layer}). *)

(** A built CDG plus the routes removed from it since: its own slot
    counts, and a copy of the pair membership of the slots removals
    reach, in which removed pairs are tombstoned — the bookkeeping, and
    the cost, of the original engine's mutable CDG. *)
module Layer : sig
  type t

  (** [create store cdg] is [cdg], built from [store], with nothing
      removed yet. *)
  val create : Route_store.t -> Cdg.t -> t

  (** [remove_pair t ~pair] removes [pair]'s membership, with its
      slice's {!Route_store.weight}, from every dependency of its path.
      The caller must only remove pairs the build included, once.
      @raise Invalid_argument if an edge of the path is not live or
      [pair] is not among its live inducers. *)
  val remove_pair : t -> pair:int -> unit

  (** [live t ~c1 ~c2] is [true] iff the edge has a positive count. *)
  val live : t -> c1:int -> c2:int -> bool

  (** Weight of the routes still inducing an edge (0 if absent or dead). *)
  val edge_count : t -> c1:int -> c2:int -> int

  (** Exactly the pairs still inducing a live edge (a multiset, in
      unspecified order); [[]] if the edge is dead. *)
  val edge_pairs : t -> c1:int -> c2:int -> int list

  (** Number of live edges. *)
  val num_edges : t -> int

  (** Number of paths the build included minus those removed. *)
  val num_paths : t -> int
end

(** Resumable depth-first cycle search over a {!Layer.t}. After a cycle
    is reported and the caller breaks it by removing routes, the search
    continues from where it stopped instead of restarting: removal
    cannot create cycles, so finished regions stay certified and only
    the invalidated part of the DFS stack is explored again. Roots and
    successors run in {!Deadlock.Cycle.find}'s order, so the first cycle
    is the one it returns. *)
module Search : sig
  type t

  (** Start a search over a layer. Removing pairs from the layer while
      the search lives must be followed by {!notify_removed} before the
      next {!find_cycle}. *)
  val create : Layer.t -> t

  (** [find_cycle t] returns the next directed cycle, as the array of CDG
      edges [(c_i, c_j)] forming it (each live at return time), or [None]
      when the remaining graph is acyclic. Calling it again without
      removing an edge of the reported cycle returns the same cycle. *)
  val find_cycle : t -> (int * int) array option

  (** Tell the search that the caller removed edges: the DFS stack is
      truncated at the first stack edge that died, and the cut-off suffix
      is reverted to unvisited. *)
  val notify_removed : t -> unit
end

(** [choose h layer cycle] picks the edge of [cycle] to break by the live
    edge counts of [layer]. Ties go to the earliest edge in cycle order.
    @raise Invalid_argument on an empty cycle. *)
val choose : Heuristic.t -> Layer.t -> (int * int) array -> int * int

(** [assign_store store ~max_layers ~heuristic] is Algorithm 2 one cycle
    at a time: layer 0 holds every present pair; each layer's CDG is
    built once ({!Cdg.of_store}), its cycles are found and broken one by
    one, and the evicted pairs are built into the next layer's CDG in
    one pass. [cycles_broken] counts the cycles found and broken. The
    [dfs_ref.condense] (cycle search), [dfs_ref.evict] (choice and
    relocation) and [dfs_ref.rebuild] (CDG builds) timers of the default
    registry split its time. [Error] if a cycle survives in the last
    allowed layer, with {!Deadlock.Layers.assign_store}'s message.
    @raise Invalid_argument if [max_layers < 1]. *)
val assign_store :
  Route_store.t -> max_layers:int -> heuristic:Heuristic.t -> (Layers.outcome, string) result
