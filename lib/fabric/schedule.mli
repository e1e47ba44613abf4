(** Fault schedules: ordered lists of topology events to replay against a
    {!Manager}. Either parsed from a text file (one event per line, [#]
    comments) or generated randomly against a simulated copy of the
    fabric, so every emitted event is applicable at its position — ids
    refer to the fabric as it stands then, including after a mid-schedule
    switch removal. *)

type t = Event.t list

val to_string : t -> string

(** One event per line; blank lines and [#] comments ignored. *)
val of_string : string -> (t, string) result

(** [generate g ~rng ~events ()] draws a mixed schedule of [events]
    applicable events: link downs of randomly chosen non-critical cables,
    link ups of previously failed cables (probability [up_fraction],
    default 0.35, when any cable is down), plus [switch_removals]
    (default 0) switch removals and [drains] (default 0) switch drains at
    random positions. Events that no candidate can satisfy (e.g. every
    remaining cable is a cut edge) are dropped, so the result may be
    shorter than [events]. Deterministic in [rng]. *)
val generate :
  Graph.t ->
  rng:Rng.t ->
  events:int ->
  ?switch_removals:int ->
  ?drains:int ->
  ?up_fraction:float ->
  unit ->
  t
