(** Time-ordered event queue for the discrete-event simulator: a binary
    min-heap on float timestamps with FIFO tie-breaking (events scheduled
    earlier pop first at equal times — determinism matters for
    reproducible simulations). *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int

(** [schedule t ~at event] enqueues [event] at time [at].
    @raise Invalid_argument on NaN or negative time. *)
val schedule : 'a t -> at:float -> 'a -> unit

(** Pop the earliest event as [(time, event)]. *)
val next : 'a t -> (float * 'a) option
