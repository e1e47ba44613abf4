(** Fault-tolerance sweeps — the experiment behind the paper's motivation:
    specialized routings (DOR, FatTree) carry their guarantees only on the
    intact topology they were designed for, while DFSSSP keeps routing
    any connected remainder deadlock-free. Cables are removed one batch at
    a time (connectivity-preserving, see {!Netgraph.Degrade}) and every
    algorithm is re-run on each degraded fabric. *)

type fabric =
  | Torus  (** 6x6 wrap-around torus — DOR's home ground *)
  | Fat_tree  (** XGFT(2;4,4;2,2) with 64 endpoints — ftree's home ground *)

(** [sweep ~fabric ?removals ?patterns ?seed ()] removes the given numbers
    of cables cumulatively and reports, per step: whether the specialist
    (DOR or ftree) still routes and is still deadlock-free, and the
    bandwidth and lane count of the generalists. *)
val sweep : fabric:fabric -> ?removals:int list -> ?patterns:int -> ?seed:int -> unit -> Report.table
