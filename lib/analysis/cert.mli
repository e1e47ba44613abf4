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
    O(V+E). *)

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

(** [generate store ~layer_of_path ~num_layers] builds one topological
    numbering per layer from the route store ([layer_of_path] indexed by
    pair id, [-1] for absent pairs).
    @raise Invalid_argument if [layer_of_path] does not cover the store
    or [num_layers < 1]. *)
val generate : Route_store.t -> layer_of_path:int array -> num_layers:int -> (t, error) result

(** [of_artifacts ft store ~layer_of_path] certifies the artifacts of
    [ft] ({!artifacts_of_table}); layers are sized to cover both the
    declared layer count and the highest layer any route uses. *)
val of_artifacts : Ftable.t -> Route_store.t -> layer_of_path:int array -> (t, error) result

(** {1 Checking (trusted side)} *)

(** [check cert store ~layer_of_path] validates the certificate against
    the routing artifact in one pass: shape (channel count, one complete
    numbering per layer), every pair's layer within the certificate, and
    every dependency [(c1, c2)] strictly ascending in its layer's
    numbering. [Error] names the first violation. *)
val check : t -> Route_store.t -> layer_of_path:int array -> (unit, string) result

(** {1 Artifacts}

    Text format (line-oriented, [#] comments):
    {v
    certificate v1 channels <m> layers <k>
    layer <l> <pos_0> <pos_1> ... <pos_{m-1}>
    end
    v} *)

val to_string : t -> string

val of_string : string -> (t, string) result

(** Extract the per-pair artifacts ([store], [layer_of_path]) the
    certifier works over from a forwarding table. Shared by the analyzer
    and the generator; independent of [lib/cdg]. *)
val artifacts_of_table : Ftable.t -> (Route_store.t * int array, string) result
