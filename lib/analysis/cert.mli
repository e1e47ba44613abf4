(** Checkable deadlock-freedom certificates.

    The paper's safety claim is an offline graph property: every virtual
    layer's channel dependency graph (CDG) is acyclic (Dally & Seitz).
    Instead of trusting the code that constructed the layers, the
    {e generator} emits, per layer, a topological numbering of all
    channels — a compact int-array witness — and the small trusted
    {e checker} re-derives every dependency straight from the routing
    artifact and verifies that each one ascends in the numbering. Any
    numbering that ascends along every dependency proves the layer's CDG
    acyclic, so the checker's soundness does not depend on how the
    numbering was obtained: the generator, the layer assigner, and the
    whole of [lib/cdg] stay outside the trusted base.

    The checker runs in one O(V+E) pass (V = channels, E = route
    dependencies); the generator is a per-layer Kahn sort, also
    O(V+E). Over a table ({!Routes.of_table}) E is the set of distinct
    dependencies per layer, read off the table's destination trees: the
    dependency set of the per-pair routes, without their
    multiplicity. *)

type t = {
  num_channels : int;
  layers : int array array;
      (** [layers.(l).(c)] is channel [c]'s topological position in
          layer [l]'s numbering; length {!num_channels} per layer *)
}

val num_layers : t -> int

(** {1 Generation (untrusted side)} *)

type error =
  | Incomplete of string
      (** the artifact has no loop-free route for some pair — nothing to
          certify (the linter names the defect) *)
  | Cycle of {
      layer : int;
      stuck : int;  (** channels left on the cycle(s) after the sort *)
    }  (** a layer's CDG is cyclic — no certificate exists *)

val error_to_string : error -> string

(** The dependencies a certificate speaks about, layer by layer: the
    route slices of a per-pair store, or the distinct dependencies of a
    table's destination trees. *)
module Routes : sig
  type t

  (** [of_store store ~layer_of_path]: every present slice rides its
      [layer_of_path] entry (indexed by pair id). Over
      {!Routing.Ftable.to_store} and {!Routing.Ftable.pair_layers} these
      are a table's per-pair routes, the dependencies {!of_table} must
      reproduce. *)
  val of_store : Route_store.t -> layer_of_path:int array -> t

  (** [of_table ft] reads [ft]'s dependencies off its destination trees,
      in two passes over the table and nothing else. Row by row, each
      pair [(t, d)] adds its injection hop [(entry, next s d)], where [s]
      is the node its entry channel enters, to its own layer, and notes
      that [(s, d)] rides that layer. Then, per destination [d] and
      layer [L] so noted, [d]'s tree is followed from every such [s],
      stopping after the hop into the first node already walked for
      [(d, L)], so each tree edge is derived once per [(d, L)]. Each
      layer's dependencies are kept distinct (a bitset over the fabric's
      turns) and stored in an exactly-sized array.

      The result is the dependency set of {!Routing.Ftable.to_store}'s
      per-pair store under the table's layers, so verdicts and [stuck]
      counts are the per-pair ones — also when the pairs entering one
      node ride different layers. [Error] names the first pair in pair-id
      order with no loop-free route (an unset entry, a dead end, a
      forwarding loop, or a walk that enters a terminal other than its
      destination), in {!Routing.Ftable.to_classes}' words. *)
  val of_table : Ftable.t -> (t, string) result
end

(** [of_routes ft routes] builds one topological numbering per layer (a
    Kahn sort), over layers sized to cover both [ft]'s declared layer
    count and the highest layer any route uses. *)
val of_routes : Ftable.t -> Routes.t -> (t, error) result

(** {1 Checking (trusted side)} *)

(** [check_routes cert routes] validates the certificate against the
    routes in one pass: shape (channel count, one complete numbering per
    layer), every route's layer within the certificate, and every
    dependency, strictly ascending in its layer's numbering. [Error]
    names the first violation: over a per-pair store, in pair order.
    Over a table's trees it tests each distinct dependency once. *)
val check_routes : t -> Routes.t -> (unit, string) result

(** {1 Artifacts}

    Text format (line-oriented, [#] comments):
    {v
    certificate v1 channels <m> layers <k>
    layer <l> <pos_0> <pos_1> ... <pos_{m-1}>
    end
    v} *)

val to_string : t -> string
