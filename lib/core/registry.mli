(** Uniform access to every routing algorithm the paper compares
    (its Figs. 4–8): MinHop, SSSP, Up*/Down*, FatTree, LASH, DOR, DFSSSP
    (offline and online). Each entry may refuse fabrics it does not
    support — a refusal is the paper's "missing bar". *)

type algorithm = {
  name : string;
  deadlock_free_by_design : bool;
  run : Graph.t -> (Ftable.t, string) result;
}

(** The paper's line-up, in its Fig. 4 legend order:
    MinHop, Up*/Down*, FatTree, DOR, LASH, SSSP, DFSSSP.
    [coords] enables DOR on grid fabrics; without it DOR refuses.
    [batch]/[domains] select the batched-snapshot pipeline (DESIGN.md
    section 12) on the engines that support it — [batch] changes the
    tables (default 1: the sequential recurrence), [domains] only the
    wall-clock; LASH ignores both. Every entry runs the default
    shortest-path kernel; kernel parity is checked below this layer, on
    {!Routing.Sssp} (DESIGN.md §15). *)
val all : ?coords:Coords.t -> ?max_layers:int -> ?batch:int -> ?domains:int -> unit -> algorithm list

(** [find ?coords name] is case-insensitive; accepts "dfsssp-online" for
    the online variant. *)
val find :
  ?coords:Coords.t -> ?max_layers:int -> ?batch:int -> ?domains:int -> string -> algorithm option

val names : string list
