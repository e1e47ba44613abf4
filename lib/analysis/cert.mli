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
    O(V+E). Over a table's route classes ({!Routes.of_classes}) E counts
    each class's dependencies once per layer its pairs ride, plus one
    injection hop per (entry channel, class first channel, layer): the
    dependency set of the per-pair routes, at a fraction of the
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

(** The dependencies a certificate speaks about, layer by layer: route
    slices of a store, each riding one or more layers, plus single
    dependencies. *)
module Routes : sig
  type t

  (** [of_store store ~layer_of_path]: every present slice rides its
      [layer_of_path] entry (indexed by pair id); no single
      dependencies. Over {!Routing.Ftable.to_store} and
      {!Routing.Ftable.pair_layers} these are a table's per-pair routes,
      the dependencies {!of_classes} must reproduce. *)
  val of_store : Route_store.t -> layer_of_path:int array -> t

  (** [of_classes ft cls] reads [ft]'s per-pair layers through its route
      classes ({!Routing.Ftable.to_classes}): a class rides every layer
      one of its pairs rides, and each pair adds its injection hop
      [(entry, first channel of its class)] to its own layer. The result
      carries exactly the dependencies of {!Routing.Ftable.to_store}'s
      per-pair store under the table's layers, so verdicts and [stuck]
      counts are the per-pair ones — also when one class's pairs ride
      different layers. *)
  val of_classes : Ftable.t -> Ftable.classes -> t
end

(** [of_routes ft routes] builds one topological numbering per layer (a
    Kahn sort), over layers sized to cover both [ft]'s declared layer
    count and the highest layer any route uses. *)
val of_routes : Ftable.t -> Routes.t -> (t, error) result

(** {1 Checking (trusted side)} *)

(** [check_routes cert routes] validates the certificate against the
    routes in one pass: shape (channel count, one complete numbering per
    layer), every slice's layer within the certificate, and every
    dependency of a slice in each layer it rides, then every single
    dependency, strictly ascending in its layer's numbering. [Error]
    names the first violation. Over route classes it runs once per
    (class, layer) plus the injection hops. *)
val check_routes : t -> Routes.t -> (unit, string) result

(** {1 Artifacts}

    Text format (line-oriented, [#] comments):
    {v
    certificate v1 channels <m> layers <k>
    layer <l> <pos_0> <pos_1> ... <pos_{m-1}>
    end
    v} *)

val to_string : t -> string
