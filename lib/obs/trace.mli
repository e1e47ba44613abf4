(** Structured trace spans with a pluggable sink.

    A span is emitted once, when it ends, as a flat record: id, parent
    (nesting is tracked per domain), name, start timestamp, duration and
    typed attributes. {!Timer.time} is the one producer: every timed
    stage is a span named after its timer, emitted while a sink is
    installed and {!Control} is on. With no sink — the default — a timed
    stage pays one atomic load and a branch for tracing, and its
    attribute function never runs. *)

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type attrs = (string * value) list

type span = {
  id : int;
  parent : int option;
  name : string;
  start_s : float;
  dur_s : float;
  attrs : attrs;
}

type sink = {
  emit : span -> unit;
  flush : unit -> unit;
}

val span_to_json : span -> Json.t

(** JSON-lines sinks: one compact JSON object per span, one line each,
    serialized under a mutex. *)
val channel_sink : out_channel -> sink
val buffer_sink : Buffer.t -> sink

(** Counts emitted spans and drops them — for overhead measurement. *)
val counting_sink : Counter.t -> sink

(** Install (or with [None] remove) the process-wide sink; the previous
    sink, if any, is flushed. *)
val set_sink : sink option -> unit

(** Flush the installed sink, if any — the shutdown/crash path of
    long-running processes (a killed daemon must not truncate its
    JSON-lines trace mid-object). *)
val flush : unit -> unit

(** Run [f] with [sink] installed, restoring (and flushing) on exit. *)
val with_sink : sink -> (unit -> 'a) -> 'a

(** The installed sink while {!Control} is on, else [None]: what
    {!Timer.time} emits its span to. *)
val live : unit -> sink option
