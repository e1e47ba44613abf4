(** A named collection of counters and timers, snapshotable as JSON.

    The {!default} registry carries the process-wide library
    instrumentation (routing planes, pool utilization, certifier runs);
    subsystems with per-instance telemetry — the fabric manager — create
    their own. Registering an item under the name of an item of the same
    kind replaces the old item, so re-initialization never grows a
    snapshot; a counter and a timer never share a name. *)

type item =
  | Counter of Counter.t
  | Timer of Timer.t

type t

val create : unit -> t

(** The process-wide registry. *)
val default : unit -> t

(** Register into [registry] (default: the process-wide one).
    @raise Invalid_argument if an item of the other kind holds the name. *)
val register : ?registry:t -> item -> unit

(** Create a counter/timer and register it in one step.
    @raise Invalid_argument as {!register}. *)
val counter : ?registry:t -> ?slots:int -> ?desc:string -> string -> Counter.t

val timer : ?registry:t -> ?slots:int -> ?desc:string -> ?capacity:int -> string -> Timer.t

(** Registered items in registration order. *)
val items : t -> item list

val find_counter : t -> string -> Counter.t option
val find_timer : t -> string -> Timer.t option

(** Reset every registered item (meant for tests and tools). *)
val reset : t -> unit

(** Snapshot: an object mapping item names to their JSON forms. *)
val to_json : t -> Json.t

val json_string : t -> string
