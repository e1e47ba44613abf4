(** The paper's Table I: the parameterisations used to generate XGFT,
    Kautz, and k-ary n-tree fabrics of each nominal size (36-port
    switches). Exposed as data so the sweep experiments (Figs. 5–7) and
    the [table1] bench consume the exact same instances. *)

type xgft_params = {
  ms : int array;
  ws : int array;
}

type row = {
  endpoints : int;  (** nominal endpoint count, the paper's first column *)
  xgft : xgft_params;
  kautz_b : int;
  kautz_n : int;
  tree_k : int;
  tree_n : int;
}

(** Rows up to and including the given nominal size ([max_int]: all
    seven). *)
val rows_up_to : int -> row list

val xgft_graph : row -> Graph.t

val kautz_graph : row -> Graph.t

val tree_graph : row -> Graph.t

(** Rendered Table I with the actual node counts of our generators. *)
val table : unit -> Report.table
