(** Fabric churn soak: drive a {!Fabric.Manager} through a long seeded
    schedule of link failures, recoveries, drains and switch removals
    ({!Fabric.Schedule.generate}), and re-verify invariants after every
    event:

    - an applied, table-changing event must end in a verified epoch swap;
    - on every epoch swap the active tables must re-certify under the
      trusted checker ({!Analysis.Analyzer.certify}), and the A007
      witness search ({!Analysis.Witness.of_table}) — which the manager's
      epoch gate does not run — must find a dependency cycle exactly
      when the checker refuses (a failure names both verdicts and the
      witness's layer);
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
  fallbacks : int;
      (** bring-ups and full recomputes placed online after Algorithm 2
          ran out of layers (the manager's [fabric.fallbacks]) *)
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

val failures : result list -> string list

(** One line per soak plus a closing tally; failing runs print their
    failures and reproduction artifact path. *)
val pp_summary : Format.formatter -> result list -> unit
