(** The routing certifier's front door: lint a forwarding table
    ({!Lint}), generate its deadlock-freedom certificate, and validate
    the certificate with the trusted checker ({!Cert}) — all without
    touching the construction code in [lib/cdg] or [lib/core]. A table is
    {e certified} only when the checker accepts a topological witness for
    every virtual layer; lint errors independently veto installation
    ({!ok}). Every certification reads the table's destination trees
    once ({!Cert.Routes.of_table}); it walks no route classes, and
    neither it nor {!Cert} uses [Deadlock.Cdg] or [Layers]. Every
    deadlock verdict the shipped code gives ([Dfsssp.Verify.report], the
    epoch gate, the experiments) is this checker's. *)

type verdict =
  | Certified of Cert.t
  | Rejected of string

type report = {
  algorithm : string;
  channels : int;
  terminals : int;
  num_layers : int;  (** the table's declared layer count *)
  existence : Existence.t;
      (** the existence analysis of the fabric the table is judged
          against: its [min_layers_lb] is the provable layer lower bound,
          and the per-topology slack is [num_layers - min_layers_lb] *)
  findings : Diag.finding list;
  verdict : verdict;
}

(** [analyze ?hop_budget ?graph ft] lints and certifies [ft], and runs
    the topology-level existence analysis ({!Existence}) on the fabric
    the table is judged against. [graph] lints against an overriding
    fabric (see {!Lint.table}); certification always runs over
    the table's own artifacts. A cyclic layer surfaces both as
    [Rejected] and as an {!Diag.a007_cdg_cycle} finding; an unroutable
    demand raises {!Diag.a008_no_deadlock_free_routing}, a provably
    infeasible layer budget {!Diag.a009_layer_budget_infeasible}, and a
    feasible one the informational {!Diag.a010_layer_slack}. *)
val analyze : ?hop_budget:Lint.hop_budget -> ?graph:Graph.t -> Ftable.t -> report

(** [certify ft] is the install gate used by {!Fabric.Epoch}: read
    [ft]'s dependencies off its destination trees and per-pair layers
    ({!Cert.Routes.of_table}), generate a certificate over them, and
    have the trusted checker validate it against the same dependencies.
    Nothing built by construction code is read: only the table. It
    allocates O(channels x layers) beyond the per-(entry node,
    destination) notes of the first pass, and bumps no
    [routing.class_walks]. One [analysis.certify] timer sample per call,
    made of one [analysis.certify_walk], [_generate] and [_check] sample
    each as far as the run gets. [Error] explains the refusal. *)
val certify : Ftable.t -> (Cert.t, string) result

(** [ok r] is [true] iff the verdict is [Certified] and no finding has
    [Error] severity (warnings do not veto). *)
val ok : report -> bool

val pp : Format.formatter -> report -> unit

(** One JSON object; [target] labels the analyzed artifact (a topology
    spec or file name). *)
val to_json : ?target:string -> report -> Obs.Json.t
