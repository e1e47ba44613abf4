(** The fabric manager's operational telemetry — the counters a subnet
    manager exports — built on {!Obs} primitives and registered in a
    per-manager {!Obs.Registry.t}, so the whole set snapshots to JSON
    ([fabric_tool manage --stats-json]). Mutated by {!Manager.create}
    and {!Manager.apply}. *)

type t = {
  registry : Obs.Registry.t;
  events_seen : Obs.Counter.t;
  events_applied : Obs.Counter.t;  (** topology actually changed *)
  events_rejected : Obs.Counter.t;  (** refused (would disconnect, unknown id, ...) *)
  full_recomputes : Obs.Counter.t;  (** events settled by full reroute *)
  fallbacks : Obs.Counter.t;
      (** bring-ups and full recomputes placed online after Algorithm 2
          ran out of layers (a full recompute also counts among
          [full_recomputes]; a bring-up does not) *)
  swap_epochs : Obs.Counter.t;  (** gauge: epoch counter after the latest swap *)
  verify_failures : Obs.Counter.t;  (** candidate tables rejected by the verifier *)
  apply : Obs.Timer.t;  (** seconds per [Manager.apply]: the outer stage of every event *)
  repair : Obs.Timer.t;  (** seconds spent computing routes/layers, at bring-up and per full recompute *)
  verify : Obs.Timer.t;  (** seconds spent in the certificate + verifier gates *)
}

val create : unit -> t

(** Scalar views (sums over slots), for display and tests. *)

val events_seen : t -> int
val events_applied : t -> int
val events_rejected : t -> int
val full_recomputes : t -> int
val fallbacks : t -> int
val swap_epochs : t -> int
val verify_failures : t -> int

(** Snapshot of the per-manager registry. *)
val to_json : t -> Obs.Json.t

val pp : Format.formatter -> t -> unit
