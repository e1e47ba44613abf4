(** Operational telemetry of the controller daemon, on {!Obs} primitives
    in a per-server registry — what an operator scrapes to see whether
    the service is keeping up or shedding load. A manager step's pause
    points are the ends of its timed stages ({!Obs.Timer.time} under the
    daemon's stage hook). *)

type t = {
  registry : Obs.Registry.t;
  connections : Obs.Counter.t;  (** accepted *)
  disconnects : Obs.Counter.t;
  requests : Obs.Counter.t;  (** complete frames handled *)
  route_queries : Obs.Counter.t;
  reads_in_swap : Obs.Counter.t;
      (** route, ping, stats, epoch and trace requests answered at the
          pause points of a manager step, from the pre-swap epoch *)
  route_errors : Obs.Counter.t;  (** unroutable / bad ids *)
  events_enqueued : Obs.Counter.t;  (** admitted into the event queue *)
  events_applied : Obs.Counter.t;
  event_batches : Obs.Counter.t;  (** queue drains (one per manager step group) *)
  busy_replies : Obs.Counter.t;  (** load shed: admission queue full *)
  bad_requests : Obs.Counter.t;  (** unparseable / unknown / refused frames *)
  bytes_in : Obs.Counter.t;
  bytes_out : Obs.Counter.t;
  queue_depth : Obs.Counter.t;  (** gauge: events waiting right now *)
  queue_peak : Obs.Counter.t;  (** gauge: high-water mark of the queue *)
  route_s : Obs.Timer.t;  (** per-query serve time *)
  apply_s : Obs.Timer.t;  (** per-event manager step time *)
  swap_stretch_s : Obs.Timer.t;
      (** per-event longest stretch between pause points, from the step's
          start to its end: the longest a read can wait behind it *)
}

val create : unit -> t

(** Snapshot of the per-server registry. *)
val to_json : t -> Obs.Json.t
