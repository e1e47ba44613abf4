(** The routing certifier's front door: lint a forwarding table
    ({!Lint}), generate its deadlock-freedom certificate, and validate
    the certificate with the trusted checker ({!Cert}) — all without
    touching the construction code in [lib/cdg] or [lib/core]. A table is
    {e certified} only when the checker accepts a topological witness for
    every virtual layer; lint errors independently veto installation
    ({!ok}). Every certification walks the table's route classes exactly
    once ({!Routing.Ftable.to_classes}), and neither it nor {!Cert} uses
    [Deadlock.Cdg], [Layers] or [Acyclic]. *)

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

(** [certify_classes ft] is the install gate used by {!Fabric.Epoch}: walk
    [ft]'s route classes once ({!Routing.Ftable.to_classes}), generate a
    certificate over them and the table's per-pair layers
    ({!Cert.Routes.of_classes}), and have the trusted checker validate it
    against the same classes. On success it also returns the classes, so
    the caller can measure and serve ({!Routing.Ftable.expand}) exactly
    the routes that were proven deadlock-free without walking the tables
    again. The classes are always ones this function derived from [ft]
    itself; none from construction code is ever accepted. One
    [analysis.certify] timer sample per call. [Error] explains the
    refusal. *)
val certify_classes : Ftable.t -> (Cert.t * Ftable.classes, string) result

(** [certify ft] is {!certify_classes} without the classes. *)
val certify : Ftable.t -> (Cert.t, string) result

(** [ok r] is [true] iff the verdict is [Certified] and no finding has
    [Error] severity (warnings do not veto). *)
val ok : report -> bool

val pp : Format.formatter -> report -> unit

(** One JSON object; [target] labels the analyzed artifact (a topology
    spec or file name). *)
val to_json : ?target:string -> report -> Obs.Json.t
