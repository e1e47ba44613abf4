(** The controller wire protocol: length-prefixed JSON frames over a
    Unix-domain or TCP stream socket.

    A frame is a 4-byte big-endian unsigned payload length followed by
    exactly that many bytes of UTF-8 JSON ({!Obs.Json} is the codec on
    both ends). Requests are JSON objects with an ["op"] field; replies
    are JSON objects with a ["status"] field — ["ok"], ["busy"] (the
    admission queue sheds load, retry later) or ["error"]. A request may
    carry an ["id"] member (any JSON value), echoed verbatim in its
    reply: replies to mutating requests are deferred to the next batch
    boundary, so pipelining clients correlate by id, not order. See
    [doc/fabric_service.md] for the full reference. *)

(** Where a server listens / a client connects. *)
type addr =
  | Unix_path of string  (** Unix-domain socket path *)
  | Tcp of string * int  (** host, port *)

val addr_to_string : addr -> string

(** Protocol revision, echoed by [ping]. *)
val version : int

(** Default cap on a single frame's payload (1 MiB). Both sides refuse
    larger frames instead of allocating unboundedly. *)
val default_max_frame : int

(** {1 Requests} *)

type request =
  | Ping
  | Route of {
      src : int;
      dst : int;
    }  (** per-pair path + layer lookup against the active epoch *)
  | Event of Fabric.Event.t  (** topology event; admission-queued and batched *)
  | Stats  (** manager + process + service registry snapshots *)
  | Trace of int option  (** most recent trace spans (optional limit) *)
  | Analyze  (** lint + certify the active tables *)
  | Epoch_info  (** epoch history *)
  | Shutdown  (** graceful drain and exit *)

val request_to_json : request -> Obs.Json.t

(** Decode a request object; [Error] is a human-readable refusal
    (unknown op, missing field, non-terminal ids left for the server). *)
val request_of_json : Obs.Json.t -> (request, string) result

(** The request's ["id"] member, if any — echo it in the reply. *)
val request_id : Obs.Json.t -> Obs.Json.t option

(** {1 Framing}

    Blocking helpers used by clients and tests; the server runs its own
    non-blocking framing inside the event loop. *)

(** [write_frame fd payload] writes one complete frame.
    @raise Unix.Unix_error on I/O failure. *)
val write_frame : Unix.file_descr -> string -> unit

(** [read_frame fd] reads one complete frame. [Ok None] on clean EOF at
    a frame boundary; [Error] on truncation, oversize or I/O failure. *)
val read_frame : ?max_frame:int -> Unix.file_descr -> (string option, string) result
