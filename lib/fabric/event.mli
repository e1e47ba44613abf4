(** Topology events a live subnet manager reacts to. Cables are named by
    either channel id of their bidirectional pair; switches by node id.
    Ids always refer to the fabric {e as it stands when the event fires} —
    a {!Switch_remove} re-assigns ids (see {!Fabstate.change}), so later
    events must use post-rebuild ids. *)

type t =
  | Link_down of int  (** cable fails (both directed channels) *)
  | Link_up of int  (** previously failed cable comes back *)
  | Switch_drain of int
      (** operator drains a switch: every inter-switch cable that
          connectivity can spare goes down, ids preserved *)
  | Switch_remove of int
      (** switch (and its terminals) leave the fabric; structural rebuild *)

val to_string : t -> string

(** Inverse of {!to_string}: ["down 12"], ["up 12"], ["drain 3"],
    ["remove 3"]. *)
val of_string : string -> (t, string) result
