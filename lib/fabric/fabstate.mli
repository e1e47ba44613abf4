(** The topology half of the fabric manager's state: the fabric as it
    currently stands, mutated by {!Event} application. Shared between the
    manager (which routes on it) and the {!Schedule} generator (which
    simulates it to emit only applicable events), so both agree on ids at
    every point of a schedule. *)

type change =
  | Disabled of int list
      (** channel ids taken out of the adjacency; node and channel ids
          unchanged, so forwarding state indexed by id survives *)
  | Restored of int list  (** channel ids brought back; ids unchanged *)
  | Rebuilt
      (** structural change ({!Event.Switch_remove}): node and channel
          ids re-assigned, all id-keyed state must be rebuilt *)

type t

val create : Graph.t -> t

(** The current fabric. Disabled cables are absent from its adjacency but
    keep their channel ids ({!Graph.channel_enabled}). *)
val graph : t -> Graph.t

(** Lower channel ids of currently-disabled cables ([Link_up]
    candidates). *)
val disabled_cables : t -> int list

(** Lower channel ids of enabled switch-to-switch cables ([Link_down]
    candidates). *)
val enabled_cables : t -> int array

(** [apply t ev] mutates the topology. [Error] leaves it untouched —
    e.g. downing a cut cable, re-upping an enabled cable, or removing a
    switch whose loss disconnects the fabric. *)
val apply : t -> Event.t -> (change, string) result
