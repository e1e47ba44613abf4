(** Result tables for the experiment harness: aligned text rendering for
    the terminal and CSV export, with a [Missing] cell standing for a
    routing algorithm that refused a fabric (the paper's absent bars). *)

type cell =
  | Str of string
  | Int of int
  | Flt of float  (** rendered %.4f *)
  | Pct of float  (** fraction rendered as a signed percentage *)
  | Time of float  (** seconds, rendered adaptively *)
  | Missing

type table = {
  title : string;
  columns : string list;
  rows : cell list list;
  notes : string list;
}

(** Render to stdout with aligned columns, a title rule, and trailing
    notes. *)
val print : table -> unit

(** [save_csv dir t] writes [<dir>/<slug-of-title>.csv] — cells rendered
    as {!print} renders them, quoted where they hold a comma, quote or
    newline — and returns the path. *)
val save_csv : dir:string -> table -> string
