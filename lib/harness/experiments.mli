(** The paper's evaluation as one table: every figure, table, ablation
    and extension under a stable id, each a function of the shared size
    knobs. [fabric_tool experiment ID...] runs those entries and
    [fabric_tool experiment all] every entry that is not [full_scale]. *)

type params = {
  scale : int;  (** divisor for real-system sizes; 1 = the published size *)
  patterns : int;  (** random bisection patterns per bandwidth cell *)
  max_endpoints : int;  (** largest sweep size (Figs. 5-7, complexity) *)
  trials : int;  (** random-topology seeds (Fig. 9, heuristics) *)
  domains : int option;
      (** worker domains for Figs. 4-8 (identical numbers for Figs. 4-6);
          [None] runs sequentially *)
}

type t = {
  id : string;
  title : string;
  full_scale : bool;
      (** runs at the paper's size whatever [params] say (CPU-hours);
          [experiment all] skips it *)
  run : params -> Report.table;
}

(** Every experiment, in the paper's order followed by the ablations and
    extensions. *)
val all : t list
