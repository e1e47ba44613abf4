(** Diagnostics framework for the routing certifier: a stable rule
    catalog, severity levels, and findings that carry enough context
    (destination, affected-entry counts, human detail) to act on without
    re-running the analysis. Rule ids are part of the tool's contract —
    tests, CI gates and the JSON output all key on them, so ids are never
    renumbered or reused. *)

type severity =
  | Error  (** the table must not be installed *)
  | Warning  (** suspicious but installable *)
  | Info

type rule = {
  id : string;  (** stable, e.g. ["A002-forwarding-loop"] *)
  severity : severity;
  title : string;  (** one-line description for the catalog *)
}

(** {1 Rule catalog} *)

(** Some terminal cannot reach the destination: a forwarding walk hits a
    node with no entry for that destination. *)
val a001_unreachable_dest : rule

(** Forwarding entries for a destination form a directed cycle: packets
    circulate forever. *)
val a002_forwarding_loop : rule

(** An entry names a channel id that is out of range or does not leave
    the node holding the entry. *)
val a003_port_range : rule

(** A route is assigned a virtual layer outside the table's declared
    layer count — a packet injected on that SL would need an illegal
    SL→VL transition mid-route. *)
val a004_layer_transition : rule

(** An entry points into a channel that is disabled in the fabric (a
    pruned cable still referenced by the tables). *)
val a005_dead_entry : rule

(** A route exceeds its hop budget (minimal or minimal-plus-slack);
    detours are legal but worth flagging. *)
val a006_nonminimal : rule

(** A virtual layer's channel dependency graph has a directed cycle —
    the Dally/Seitz deadlock-freedom condition is violated and no
    certificate exists for the layer. *)
val a007_cdg_cycle : rule

(** Some ordered terminal pair is unreachable in the enabled fabric, so
    no routing of any kind serves the demand set ({!Existence}). *)
val a008_no_deadlock_free_routing : rule

(** The declared layer budget is below the fabric's provable layer
    minimum ({!Existence.t.min_layers_lb}): every destination-based
    routing under the budget has a cyclic layer. *)
val a009_layer_budget_infeasible : rule

(** Informational: achieved layer count vs. the fabric's provable
    minimum — the per-topology slack of the routing engine. *)
val a010_layer_slack : rule

(** Every rule above, in id order (the published catalog). *)
val catalog : rule list

(** Look a rule up by its stable id. *)
val find_rule : string -> rule option

(** A one-paragraph remediation for the rule, suitable for
    [fabric_tool analyze --explain]; every catalog rule has one. *)
val explain : rule -> string

(** {1 Findings} *)

type finding = {
  rule : rule;
  dst : int option;  (** destination terminal (node id) the finding is scoped to *)
  count : int;  (** affected entries / routes under this (rule, dst) *)
  detail : string;  (** human-readable specifics, names the first offender *)
}

val finding : ?dst:int -> ?count:int -> rule -> string -> finding

val severity_to_string : severity -> string

val num_errors : finding list -> int

val num_warnings : finding list -> int

val pp_finding : Format.formatter -> finding -> unit

(** One JSON object. *)
val finding_to_json : finding -> Obs.Json.t
