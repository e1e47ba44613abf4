(** The fabric manager's operational telemetry — the counters a subnet
    manager exports — built on {!Obs} primitives and registered in a
    per-manager {!Obs.Registry.t}, so the whole set snapshots to JSON
    ([fabric_tool manage --stats-json]). Mutated by {!Manager.apply}. *)

type t = {
  registry : Obs.Registry.t;
  events_seen : Obs.Counter.t;
  events_applied : Obs.Counter.t;  (** topology actually changed *)
  events_rejected : Obs.Counter.t;  (** refused (would disconnect, unknown id, ...) *)
  incremental_repairs : Obs.Counter.t;  (** events settled by the rescue ({!Repair}) *)
  full_recomputes : Obs.Counter.t;  (** events settled by full reroute *)
  fallbacks : Obs.Counter.t;
      (** full recomputes that failed (layers exhausted or the gate
          refused the candidate) and went to the rescue *)
  dsts_repaired : Obs.Counter.t;  (** destinations re-routed, rescued events only *)
  dsts_total : Obs.Counter.t;  (** destinations present, summed over rescued events *)
  swap_epochs : Obs.Counter.t;  (** gauge: epoch counter after the latest swap *)
  verify_failures : Obs.Counter.t;  (** candidate tables rejected by the verifier *)
  repair : Obs.Timer.t;  (** seconds spent computing routes/layers *)
  verify : Obs.Timer.t;  (** seconds spent in the certificate + verifier gates *)
}

val create : unit -> t
val registry : t -> Obs.Registry.t

(** Scalar views (sums over slots), for display and tests. *)

val events_seen : t -> int
val events_applied : t -> int
val events_rejected : t -> int
val incremental_repairs : t -> int
val full_recomputes : t -> int
val fallbacks : t -> int
val dsts_repaired : t -> int
val dsts_total : t -> int
val swap_epochs : t -> int
val verify_failures : t -> int
val repair_s : t -> float
val verify_s : t -> float

(** [dsts_repaired / dsts_total] ([0.] when no rescue swapped). *)
val repaired_fraction : t -> float

(** Snapshot of the per-manager registry. *)
val to_json : t -> Obs.Json.t

val pp : Format.formatter -> t -> unit
