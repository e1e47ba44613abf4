type t = {
  registry : Obs.Registry.t;
  connections : Obs.Counter.t;
  disconnects : Obs.Counter.t;
  requests : Obs.Counter.t;
  route_queries : Obs.Counter.t;
  reads_in_swap : Obs.Counter.t;
  route_errors : Obs.Counter.t;
  events_enqueued : Obs.Counter.t;
  events_applied : Obs.Counter.t;
  event_batches : Obs.Counter.t;
  busy_replies : Obs.Counter.t;
  bad_requests : Obs.Counter.t;
  bytes_in : Obs.Counter.t;
  bytes_out : Obs.Counter.t;
  queue_depth : Obs.Counter.t;
  queue_peak : Obs.Counter.t;
  route_s : Obs.Timer.t;
  apply_s : Obs.Timer.t;
  swap_stretch_s : Obs.Timer.t;
}

let create () =
  let registry = Obs.Registry.create () in
  let counter ?desc name = Obs.Registry.counter ~registry ?desc name in
  let timer ?desc name = Obs.Registry.timer ~registry ?desc name in
  {
    registry;
    connections = counter ~desc:"client connections accepted" "service.connections";
    disconnects = counter ~desc:"client connections closed" "service.disconnects";
    requests = counter ~desc:"request frames handled" "service.requests";
    route_queries = counter ~desc:"route queries served" "service.route_queries";
    reads_in_swap =
      counter ~desc:"reads answered at an epoch swap's pause points" "service.reads_in_swap";
    route_errors = counter ~desc:"route queries refused" "service.route_errors";
    events_enqueued = counter ~desc:"topology events admitted" "service.events_enqueued";
    events_applied = counter ~desc:"topology events applied" "service.events_applied";
    event_batches = counter ~desc:"event queue drains" "service.event_batches";
    busy_replies = counter ~desc:"busy replies (queue full)" "service.busy_replies";
    bad_requests = counter ~desc:"malformed or unknown requests" "service.bad_requests";
    bytes_in = counter ~desc:"payload bytes received" "service.bytes_in";
    bytes_out = counter ~desc:"payload bytes sent" "service.bytes_out";
    queue_depth = counter ~desc:"gauge: events waiting" "service.queue_depth";
    queue_peak = counter ~desc:"gauge: event queue high-water mark" "service.queue_peak";
    route_s = timer ~desc:"route query serve seconds" "service.route_s";
    apply_s = timer ~desc:"per-event manager step seconds" "service.apply_s";
    swap_stretch_s =
      timer ~desc:"per-event seconds of the longest stretch between pause points"
        "service.swap_stretch_s";
  }

let to_json t = Obs.Registry.to_json t.registry
