(* The fabric manager's operational telemetry, built on the Obs
   primitives (DESIGN.md section 13): every field that used to be a raw
   mutable int/float is an Obs counter or timer registered in a
   per-manager registry, so `fabric_tool manage --stats-json` exports
   the whole set as one machine-readable snapshot. *)

type t = {
  registry : Obs.Registry.t;
  events_seen : Obs.Counter.t;
  events_applied : Obs.Counter.t;
  events_rejected : Obs.Counter.t;
  full_recomputes : Obs.Counter.t;
  fallbacks : Obs.Counter.t;
  swap_epochs : Obs.Counter.t;
  verify_failures : Obs.Counter.t;
  apply : Obs.Timer.t;
  repair : Obs.Timer.t;
  verify : Obs.Timer.t;
}

let create () =
  let registry = Obs.Registry.create () in
  let counter name desc = Obs.Registry.counter ~registry ~desc name in
  let timer name desc = Obs.Registry.timer ~registry ~desc name in
  {
    registry;
    events_seen = counter "fabric.events_seen" "events offered to the manager";
    events_applied = counter "fabric.events_applied" "events that changed the topology";
    events_rejected = counter "fabric.events_rejected" "events refused (would disconnect, unknown id, ...)";
    full_recomputes = counter "fabric.full_recomputes" "events settled by full reroute";
    fallbacks = counter "fabric.fallbacks" "bring-ups and full recomputes placed online after Algorithm 2 ran out of layers";
    swap_epochs = counter "fabric.swap_epochs" "epoch counter after the latest swap";
    verify_failures = counter "fabric.verify_failures" "candidate tables rejected by the verifier";
    apply = timer "fabric.apply" "seconds per event the manager steps through";
    repair = timer "fabric.repair" "seconds computing routes/layers";
    verify = timer "fabric.verify" "seconds in certificate + verifier gates";
  }

(* Scalar views, for pretty-printing and tests. *)
let events_seen m = Obs.Counter.value m.events_seen
let events_applied m = Obs.Counter.value m.events_applied
let events_rejected m = Obs.Counter.value m.events_rejected
let full_recomputes m = Obs.Counter.value m.full_recomputes
let fallbacks m = Obs.Counter.value m.fallbacks
let swap_epochs m = Obs.Counter.value m.swap_epochs
let verify_failures m = Obs.Counter.value m.verify_failures
let repair_s m = Obs.Timer.sum_s m.repair
let verify_s m = Obs.Timer.sum_s m.verify

let to_json m = Obs.Registry.to_json m.registry

let pp ppf m =
  Format.fprintf ppf
    "events: %d seen, %d applied, %d rejected@,\
     full recomputes: %d (verify failures: %d)@,\
     online fallbacks: %d@,\
     swap epochs: %d@,\
     time: route %.3f s, verify %.3f s"
    (events_seen m) (events_applied m) (events_rejected m) (full_recomputes m) (verify_failures m)
    (fallbacks m) (swap_epochs m) (repair_s m) (verify_s m)
