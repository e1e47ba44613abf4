(** Monotonic counters with optional per-slot cells. With [slots = k]
    each worker slot owns a cache-line-strided atomic cell, so parallel
    increments from distinct slots never contend; [value] folds the
    cells at read time (advisory snapshot, not linearizable). *)

type t

(** @raise Invalid_argument when [slots < 1]. *)
val create : ?slots:int -> ?desc:string -> string -> t

val name : t -> string

(** [incr ?slot ?n t] adds [n] (default 1) to [slot]'s cell (default 0).
    Slots outside [0, slots) clamp to the nearest valid cell. *)
val incr : ?slot:int -> ?n:int -> t -> unit

(** Gauge-style assignment (epoch numbers, high-water marks); only
    meaningful on single-writer counters. *)
val set : ?slot:int -> t -> int -> unit

val slot_value : t -> int -> int

(** Sum over all slots. *)
val value : t -> int

val reset : t -> unit
val to_json : t -> Json.t
