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

(** Time [f] with [Unix.gettimeofday], recording even when it raises.
    A timed stage that returns is a pause point: after recording, [time]
    runs the calling domain's stage hook ({!with_stage_hook}), if any,
    provided a timed stage started on the domain since the hook last
    ran. So nested stages that end together pause once, at the
    innermost end, and no two pauses come without a stage started
    between them. {!add} records a duration measured elsewhere and runs
    no hook. *)
val time : ?slot:int -> t -> (unit -> 'a) -> 'a

(** [with_stage_hook hook f] runs [f ()] with [hook] as the calling
    domain's stage hook ([None]: no hook), and restores the previous
    hook when [f] returns or raises. The hook is domain-local (a spawned
    domain starts without one) and uninstalled while it runs, so a
    {!time} inside it runs no hook. The fabric daemon answers ready
    reads at the stage ends of an epoch swap this way (DESIGN.md §14);
    [Netgraph.Parallel.Pool.run] suspends the hook with [None], so no
    stage inside a parallel region pauses. *)
val with_stage_hook : (unit -> unit) option -> (unit -> 'a) -> 'a

val count : t -> int
val sum_s : t -> float
val slot_count : t -> int -> int

(** Retained recent samples, merged across slots (unspecified order). *)
val samples : t -> float array

val reset : t -> unit
val to_json : t -> Json.t
