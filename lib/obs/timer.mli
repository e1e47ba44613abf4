(** Duration accumulators with per-slot cells and a bounded ring of
    recent samples per slot, summarized on demand as a {!Stat.summary}.
    Each slot is meant to be written by a single domain; snapshot reads
    may race writers and observe slightly stale values (advisory). *)

type t

(** @raise Invalid_argument when [slots < 1] or [capacity < 1]. *)
val create : ?slots:int -> ?desc:string -> ?capacity:int -> string -> t

val name : t -> string

(** Record a duration in seconds against a slot (default 0; slots clamp
    to the valid range). *)
val add : ?slot:int -> t -> float -> unit

(** Time [f] with [Unix.gettimeofday], recording even when it raises. *)
val time : ?slot:int -> t -> (unit -> 'a) -> 'a

val count : t -> int
val sum_s : t -> float
val slot_count : t -> int -> int

(** Retained recent samples, merged across slots (unspecified order). *)
val samples : t -> float array

val reset : t -> unit
val to_json : t -> Json.t
