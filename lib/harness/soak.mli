(** Fabric churn soak: drive a {!Fabric.Manager} through a long seeded
    schedule of link failures, recoveries, drains and switch removals
    ({!Fabric.Schedule.generate}), and re-verify invariants after every
    event:

    - an applied, table-changing event must end in a verified epoch swap;
    - on every epoch swap the active tables must re-certify under the
      trusted checker ({!Analysis.Analyzer.certify}), and the [Acyclic]
      CDG oracle ({!Dfsssp.Verify.deadlock_free}) — which the manager's
      epoch gate no longer runs — must agree with that verdict;
    - the manager must report {!Fabric.Manager.converged} at the end,
      and the final tables must pass the full analyzer.

    Runs are deterministic in [(spec, seed, events, ...)]. On failure the
    soak writes a reproduction artifact — a JSON file holding the spec,
    the seed, the failure messages and the {!Obs.Trace} spans of the run
    — under [artifact_dir] and records its path, so
    [fabric_tool soak <spec> --seed <seed>] replays the exact run. *)

type result = {
  spec : string;
  seed : int;
  scheduled : int;  (** events in the generated schedule *)
  applied : int;  (** events the manager accepted *)
  swaps : int;  (** verified epoch swaps *)
  rescued : int;  (** events served by the rescue after a failed full recompute *)
  full : int;  (** events served by full recompute *)
  failures : string list;  (** invariant violations; empty means pass *)
  artifact : string option;
      (** reproduction artifact path; written on every failure, including
          unparsable specs and manager refusals (those carry no trace) *)
}

(** [run_one ~spec ~seed ~events ()] soaks one fabric. [switch_removals]
    and [drains] default to [events / 20] and [events / 10];
    [artifact_dir] defaults to ["_build/soak"] (created on demand,
    written only on failure). A spec that fails to parse, or a fabric the
    manager refuses, is a single-failure result. *)
val run_one :
  ?config:Fabric.Manager.config ->
  ?switch_removals:int ->
  ?drains:int ->
  ?artifact_dir:string ->
  spec:string ->
  seed:int ->
  events:int ->
  unit ->
  result

(** [run ~specs ~seed ~events ()] soaks every spec with the same seed and
    per-spec event count. *)
val run :
  ?config:Fabric.Manager.config ->
  ?switch_removals:int ->
  ?drains:int ->
  ?artifact_dir:string ->
  specs:string list ->
  seed:int ->
  events:int ->
  unit ->
  result list

val failures : result list -> string list

(** One line per soak plus a closing tally; failing runs print their
    failures and reproduction artifact path. *)
val pp_summary : Format.formatter -> result list -> unit
