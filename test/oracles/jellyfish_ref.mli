(** The jellyfish generator as first written: phase 1 rebuilds the list
    of every free, unlinked switch pair for each cable it draws, and the
    splice phase filters the whole cable list on every attempt, with a
    tuple-keyed [Hashtbl] for adjacency. O(switches²) work per cable.
    The oracle that {!Netgraph.Topo_jellyfish.make} is checked against
    bit for bit: the same [Rng] draws in the same order, so the same
    cables in the same order and the same channel ids. Not for
    production use; the error messages name the shipped module. *)

val make : switches:int -> ports:int -> net_ports:int -> rng:Rng.t -> Graph.t

(** How far one run went: the splices phase 2 made, and the number of
    components before {!Netgraph.Rewire.connect_components} repaired
    them (1: the repair had nothing to do). *)
type phases = { splices : int; components : int }

(** [make] plus the phases it went through. *)
val make_phases :
  switches:int -> ports:int -> net_ports:int -> rng:Rng.t -> Graph.t * phases
