(** Shared plumbing for the per-figure experiment drivers: run a named
    algorithm on a fabric, time it, and turn outcomes into table cells
    (failures become the paper's missing bars). *)

(** The paper's Fig. 4 algorithm line-up (names for {!Dfsssp.Registry}). *)
val paper_algorithms : string list

(** [run_named ?coords ?max_layers name g] routes [g], or explains why the
    algorithm refused. [batch]/[domains] select the batched-snapshot
    pipeline on supporting algorithms (see {!Dfsssp.Registry.all}); the
    shortest-path kernel is the default. *)
val run_named :
  ?coords:Coords.t -> ?max_layers:int -> ?batch:int -> ?domains:int -> string -> Graph.t -> (Ftable.t, string) result

(** [timed f] is [(wall-clock seconds, f ())]. *)
val timed : (unit -> 'a) -> float * 'a

(** [ebb_cell ?coords ~patterns ~seed name g] is the effective bisection
    bandwidth as a table cell, [Missing] if the algorithm refuses [g]. *)
val ebb_cell : ?coords:Coords.t -> ?ranks:int array -> patterns:int -> seed:int -> string -> Graph.t -> Report.cell

(** [vl_cell name g] is the number of virtual layers the algorithm needs
    on [g] ([Missing] on refusal). *)
val vl_cell : ?coords:Coords.t -> ?max_layers:int -> string -> Graph.t -> Report.cell

(** [analyzer_cell ft] is the static analyzer's verdict on [ft] as a table
    cell: ["certified"] when the certificate checker accepts and lint
    reports no errors, ["REJECTED (n error(s))"] otherwise. *)
val analyzer_cell : Ftable.t -> Report.cell

(** [analyzer_run_cell name g] routes [g] with [name] and analyzes the
    result ([Missing] on refusal). *)
val analyzer_run_cell : ?coords:Coords.t -> ?max_layers:int -> string -> Graph.t -> Report.cell

(** [runtime_cell name g] is the routing wall-clock time ([Missing] on
    refusal). [batch]/[domains] as in {!run_named} — the pipeline whose
    runtime the cell reports. *)
val runtime_cell : ?coords:Coords.t -> ?batch:int -> ?domains:int -> string -> Graph.t -> Report.cell

(** [sample_ranks ~rng ~count g] picks [count] distinct terminals uniformly
    (a scattered job allocation); all terminals if [count] exceeds the
    fabric. *)
val sample_ranks : rng:Rng.t -> count:int -> Graph.t -> int array
