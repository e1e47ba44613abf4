type severity =
  | Error
  | Warning
  | Info

type rule = {
  id : string;
  severity : severity;
  title : string;
}

let a001_unreachable_dest =
  { id = "A001-unreachable-dest"; severity = Error; title = "destination unreachable by following the table" }

let a002_forwarding_loop =
  { id = "A002-forwarding-loop"; severity = Error; title = "forwarding entries form a loop" }

let a003_port_range =
  { id = "A003-port-range"; severity = Error; title = "entry names a channel that does not leave its node" }

let a004_layer_transition =
  {
    id = "A004-layer-transition";
    severity = Error;
    title = "route layer outside the declared layer count (illegal SL->VL transition mid-route)";
  }

let a005_dead_entry =
  { id = "A005-dead-entry"; severity = Error; title = "entry points into a disabled channel" }

let a006_nonminimal =
  { id = "A006-nonminimal-hop-budget"; severity = Warning; title = "route exceeds its hop budget" }

let a007_cdg_cycle =
  {
    id = "A007-cdg-cycle";
    severity = Error;
    title = "a layer's channel dependency graph has a cycle (Dally/Seitz condition violated)";
  }

let a008_no_deadlock_free_routing =
  {
    id = "A008-no-deadlock-free-routing";
    severity = Error;
    title = "no deadlock-free routing exists: some terminal pair is unreachable in the enabled fabric";
  }

let a009_layer_budget_infeasible =
  {
    id = "A009-layer-budget-infeasible";
    severity = Error;
    title = "the declared layer budget is below the fabric's provable layer minimum";
  }

let a010_layer_slack =
  {
    id = "A010-layer-slack";
    severity = Info;
    title = "layers used vs. the fabric's provable layer minimum (per-topology slack)";
  }

let catalog =
  [
    a001_unreachable_dest;
    a002_forwarding_loop;
    a003_port_range;
    a004_layer_transition;
    a005_dead_entry;
    a006_nonminimal;
    a007_cdg_cycle;
    a008_no_deadlock_free_routing;
    a009_layer_budget_infeasible;
    a010_layer_slack;
  ]

let find_rule id = List.find_opt (fun r -> r.id = id) catalog

let explain r =
  match r.id with
  | "A001-unreachable-dest" ->
    "A forwarding walk from some terminal toward this destination reaches a node with no entry \
     for it, so traffic is dropped. Re-run the routing engine over the current fabric; if the \
     fabric itself is partitioned the analyzer also raises A008, and the cabling must be repaired \
     before any table can serve the demand."
  | "A002-forwarding-loop" ->
    "Following the per-destination entries revisits a node, so packets circulate forever. This is \
     always a table-construction bug (destination-based tables define one tree per destination); \
     rebuild the table rather than patching entries by hand."
  | "A003-port-range" ->
    "An entry names a channel id that is out of range or whose source is not the node holding the \
     entry. The table and the fabric disagree about channel ids, usually a stale artifact loaded \
     against a regenerated topology. Regenerate or reload the matching pair."
  | "A004-layer-transition" ->
    "A route is assigned a virtual layer at or above the table's declared layer count, so the \
     packet would need an SL->VL transition mid-route that InfiniBand-style fabrics cannot \
     express. Raise the declared layer count to cover every assigned layer, or rerun the layer \
     assignment under the intended budget."
  | "A005-dead-entry" ->
    "An entry forwards into a channel that is disabled in the fabric (a pruned cable the tables \
     still reference). Rerun repair/rerouting against the degraded fabric so every entry uses \
     enabled channels only."
  | "A006-nonminimal-hop-budget" ->
    "A route exceeds its hop budget (shortest-path, or shortest-plus-slack when --slack is \
     given). Detours are legal and sometimes deliberate (deadlock avoidance, load balancing); \
     treat this as a quality signal, not a veto."
  | "A007-cdg-cycle" ->
    "Some virtual layer's channel dependency graph has a directed cycle, violating the \
     Dally/Seitz condition, the layer can deadlock and no certificate exists. Re-run the cycle \
     breaking with a larger layer budget, and compare against the fabric's provable minimum \
     (A010) to see whether any budget can work."
  | "A008-no-deadlock-free-routing" ->
    "Some ordered terminal pair has no path at all in the enabled fabric, so no routing, \
     deadlock-free or otherwise, can serve the demand set; with reachability restored, one \
     simple path per route on its own layer is always deadlock-free, so reachability is exactly \
     the existence condition. Repair the fabric (re-enable or re-cable the cut) before routing."
  | "A009-layer-budget-infeasible" ->
    "The fabric contains a clean unidirectional core (a simple channel cycle that all routes \
     between its attached terminals must traverse in order) whose piercing bound exceeds the \
     declared layer budget, so every destination-based routing under this budget has a cyclic \
     layer. Raise the budget to at least the reported minimum, or add reverse cabling to break \
     the core; the emitted witness shows the forced dependency cycle."
  | "A010-layer-slack" ->
    "Informational: the table's layer count against the fabric's provable lower bound. Zero \
     slack means the engine is provably optimal on this fabric; positive slack bounds how many \
     layers a better engine could still save (the true optimum may lie anywhere in between)."
  | _ -> "No remediation recorded for this rule."

type finding = {
  rule : rule;
  dst : int option;
  count : int;
  detail : string;
}

let finding ?dst ?(count = 1) rule detail = { rule; dst; count; detail }

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let num_errors findings = List.length (List.filter (fun f -> f.rule.severity = Error) findings)

let num_warnings findings = List.length (List.filter (fun f -> f.rule.severity = Warning) findings)

let pp_finding ppf f =
  Format.fprintf ppf "%-7s %s" (severity_to_string f.rule.severity) f.rule.id;
  (match f.dst with
  | Some d -> Format.fprintf ppf " dst=%d" d
  | None -> ());
  if f.count > 1 then Format.fprintf ppf " (%d)" f.count;
  Format.fprintf ppf ": %s" f.detail

let finding_to_json f =
  Obs.Json.Obj
    [
      ("rule", Obs.Json.Str f.rule.id);
      ("severity", Obs.Json.Str (severity_to_string f.rule.severity));
      ("dst", match f.dst with Some d -> Obs.Json.Num (float_of_int d) | None -> Obs.Json.Null);
      ("count", Obs.Json.Num (float_of_int f.count));
      ("detail", Obs.Json.Str f.detail);
    ]
