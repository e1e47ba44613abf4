(** Minimized counterexample witnesses.

    When the analyzer refuses a configuration it can emit a small,
    independently checkable artifact saying {e why} — the counterpart of
    {!Cert}'s positive certificates:

    - {e Layer cycle} ([A007]): a layer's CDG is cyclic. The witness is
      a minimal dependency cycle (greedy chord-elimination shrinks the
      first cycle found until no shortcut remains, so dropping any one
      dependency breaks it) together with one concrete route inducing
      each dependency. The trusted re-check re-derives every dependency
      from the table's own routes.

    - {e Topology core} ([A009]): the declared layer budget is below the
      fabric's provable minimum. The witness is a clean core
      ({!Existence.core}) plus, per cycle position, a demand whose
      forced route covers that dependency pair; the trusted re-check
      re-derives the core structure from the graph, verifies each
      demand's forced coverage, and recomputes the piercing bound from
      the verified hosts only.

    Both checks are independent of [lib/cdg] and of the generation code
    here: they consume only the graph, the table's materialized routes
    ({!Routing.Ftable.to_store}, {!Routing.Ftable.pair_layers}) and the
    pure {!Existence.piercing} arithmetic.

    Text format (line-oriented, [#] comments):
    {v
    witness v1 kind layer channels <m> length <n> layer <l>
    witness v1 kind core channels <m> length <n> min-layers <k>
    cycle <c_0> <c_1> ... <c_{n-1}>
    dep <i> <src> <dst>
    end
    v}
    The cycle lists channel ids in dependency order; dep line [i] names
    the demand inducing (layer kind) or covering (core kind) the
    dependency [(c_i, c_{i+1 mod n})]. *)

type kind =
  | Layer_cycle of { layer : int }
  | Topology_core of { min_layers : int }

type t = {
  kind : kind;
  num_channels : int;  (** channel-id space of the graph analyzed *)
  cycle : int array;  (** [n >= 2] channel ids in dependency order *)
  srcs : int array;  (** length [n]: demand source per position *)
  dsts : int array;  (** length [n]: demand destination per position *)
}

(** {1 Generation (untrusted side)} *)

(** Find the first cyclic layer of the table's routes, shrink the cycle
    to a chordless one, and attach an inducing route per dependency.
    [Ok None] means every layer is acyclic (nothing to witness);
    [Error] means the routes cannot be materialized at all. *)
val of_table : Ftable.t -> (t option, string) result

(** Build a budget-infeasibility witness from a clean core found by
    {!Existence.analyze} (requires [core.bound >= 2]). *)
val of_core : Graph.t -> Existence.core -> (t, string) result

(** {1 Checking (trusted side)} *)

(** Validate a [Layer_cycle] witness against a forwarding table: every
    dependency of the cycle must be induced by the named route, all
    routes on the claimed layer. Only the named routes are walked, so
    the table's other routes may be broken. [Error] names the first
    violation (and rejects [Topology_core] witnesses outright). *)
val check_table : t -> Ftable.t -> (unit, string) result

(** Validate a [Topology_core] witness against the fabric alone:
    re-derives the clean-core structure, checks every demand's forced
    coverage, and accepts only if the claimed layer minimum is at most
    the piercing bound recomputed from the verified hosts. *)
val check_graph : t -> Graph.t -> (unit, string) result

(** {1 Artifacts} *)

val to_string : t -> string
