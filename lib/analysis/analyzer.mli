(** The routing certifier's front door: lint a forwarding table
    ({!Lint}), generate its deadlock-freedom certificate, and validate
    the certificate with the trusted checker ({!Cert}) — all without
    touching the construction code in [lib/cdg] or [lib/core]. A table is
    {e certified} only when the checker accepts a topological witness for
    every virtual layer; lint errors independently veto installation
    ({!ok}). Every certification materializes the table's routes exactly
    once, and neither it nor {!Cert} uses [Deadlock.Cdg], [Layers] or
    [Acyclic]. *)

type verdict =
  | Certified of Cert.t
  | Rejected of string

type report = {
  algorithm : string;
  channels : int;
  terminals : int;
  num_layers : int;  (** the table's declared layer count *)
  min_layers_lb : int;
      (** the fabric's provable layer lower bound ({!Existence}); the
          per-topology slack is [num_layers - min_layers_lb] *)
  findings : Diag.finding list;
  verdict : verdict;
}

(** [analyze ?hop_budget ?graph ft] lints and certifies [ft], and runs
    the topology-level existence analysis ({!Existence}) on the fabric
    the table is judged against. [graph] lints against an overriding
    fabric (see {!Lint.view_of_table}); certification always runs over
    the table's own artifacts. A cyclic layer surfaces both as
    [Rejected] and as an {!Diag.a007_cdg_cycle} finding; an unroutable
    demand raises {!Diag.a008_no_deadlock_free_routing}, a provably
    infeasible layer budget {!Diag.a009_layer_budget_infeasible}, and a
    feasible one the informational {!Diag.a010_layer_slack}. *)
val analyze : ?hop_budget:Lint.hop_budget -> ?graph:Graph.t -> Ftable.t -> report

(** [certify_store ft] is the install gate used by {!Fabric.Epoch}: walk
    [ft]'s routes into a store once ({!Cert.artifacts_of_table}), generate
    a certificate from that store and have the trusted checker validate it
    against the same store. On success it also returns the store and its
    pair-indexed layers, so the caller can serve and measure exactly the
    routes that were proven deadlock-free without walking the tables
    again. The store is always one this function built from [ft] itself;
    no store from construction code is ever accepted. [Error] explains the
    refusal. *)
val certify_store : Ftable.t -> (Cert.t * Route_store.t * int array, string) result

(** [certify ft] is {!certify_store} without the store. *)
val certify : Ftable.t -> (Cert.t, string) result

(** [ok r] is [true] iff the verdict is [Certified] and no finding has
    [Error] severity (warnings do not veto). *)
val ok : report -> bool

val pp : Format.formatter -> report -> unit

(** One JSON object; [target] labels the analyzed artifact (a topology
    spec or file name). *)
val to_json : ?target:string -> report -> Obs.Json.t
