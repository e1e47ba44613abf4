(** Blocking client for the controller daemon: one connection, strict
    request/reply over {!Proto} frames. Used by [fabric_tool client],
    the soak tests and the service benchmark; thin enough that each
    soak thread owns one. *)

type t

val connect : ?max_frame:int -> Proto.addr -> (t, string) result
val close : t -> unit

(** [with_connect addr f] connects, runs [f], always closes. *)
val with_connect : ?max_frame:int -> Proto.addr -> (t -> ('a, string) result) -> ('a, string) result

(** {1 Raw calls} *)

(** One framed round trip with a JSON payload. [Error] on I/O failure or
    server EOF; protocol-level refusals come back as a normal reply
    object with [status = "error"]. *)
val call : t -> Obs.Json.t -> (Obs.Json.t, string) result

(** Same, with an unparsed request payload ([--script] mode); the reply
    is returned as received. *)
val call_raw : t -> string -> (string, string) result

(** {1 Typed helpers}

    Each sends one request and decodes the reply; a [status = "error"]
    reply becomes [Error] with the server's message. *)

type route_reply = {
  epoch : int;  (** the certified epoch that served this query *)
  layers : int;  (** layer count of that epoch's tables *)
  layer : int;  (** virtual layer of this route *)
  path : int array;  (** channel ids, source terminal to destination *)
}

type event_reply =
  | Applied of {
      epoch : int;
      applied : bool;
      action : string;  (** ["full"], ["incremental"] (the rescue ran) or ["noop"] *)
      note : string;
      batch_size : int;  (** events drained in the same manager step group *)
    }
  | Busy of { queue_depth : int }
      (** explicit backpressure: the admission queue was full; retry *)

(** Returns the server's epoch. *)
val ping : t -> (int, string) result

val route : t -> src:int -> dst:int -> (route_reply, string) result
val event : t -> Fabric.Event.t -> (event_reply, string) result

(** The [stats] reply's ["stats"] object (manager/process/service). *)
val stats : t -> (Obs.Json.t, string) result

(** Recent trace spans, oldest first. *)
val trace : ?limit:int -> t -> (Obs.Json.t list, string) result

(** The analyzer report for the active tables; [fst] is the certified
    flag. *)
val analyze : t -> (bool * Obs.Json.t, string) result

(** [(epoch, label)] history, oldest first. *)
val epoch_history : t -> ((int * string) list, string) result

(** Ask the server to drain and exit; [Ok] once the reply arrives. *)
val shutdown : t -> (unit, string) result
