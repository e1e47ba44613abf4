(** Table-driven topology-zoo conformance harness.

    Runs every subject — imported corpus files under [examples/zoo/] and
    seeded {!Netgraph.Topo_jellyfish}/{!Netgraph.Topo_xpander} samples —
    through the full {!Dfsssp.Registry} line-up and checks, per subject:

    - the topology-level existence analysis ({!Analysis.Existence})
      reports every demand routable;
    - every algorithm that produces a table yields a valid one (all
      ordered terminal pairs routed loop-free);
    - every deadlock-free-by-design algorithm's table is accepted by the
      {!Analysis.Analyzer} certificate checker, and its layer count is
      at least the fabric's provable lower bound;
    - DFSSSP never refuses (it is the paper's universal algorithm);
    - kernel parity: the Heap and Bucket SSSP kernels give
      byte-identical DFSSSP tables and layer counts.

    The test suite adds engine parity on the same subjects: the shipped
    cycle-break engine against the one-cycle-at-a-time test oracle.

    Refusals by non-universal algorithms (DOR without coordinates, FTree
    off a fat tree, ...) are recorded but are not failures — they are the
    paper's missing bars. *)

type status =
  | Certified of int  (** table certified deadlock-free with this many layers *)
  | Routed of int
      (** valid table from a non-deadlock-free-by-design algorithm (its
          layer count, always 1) *)
  | Refused of string  (** the algorithm declined this fabric *)

type outcome = {
  algorithm : string;
  status : status;
}

type subject = {
  spec : string;  (** the {!Topospec} string naming the subject *)
  description : string;
  switches : int;
  terminals : int;
  channels : int;
  min_layers_lb : int;  (** provable layer lower bound of the fabric *)
  outcomes : outcome list;  (** one per registry algorithm, registry order *)
  failures : string list;  (** conformance violations; empty means pass *)
}

(** Find the corpus directory from either the repo root or a dune test
    sandbox ([examples/zoo], [../examples/zoo], ...). [None] if no
    candidate exists. *)
val find_corpus_dir : unit -> string option

(** Specs for every recognized corpus file in [dir] (by extension:
    [.dot]/[.gv] and [.edges]/[.edgelist]), sorted by filename. *)
val corpus_specs : dir:string -> string list

(** The built-in seeded generator samples: two jellyfish and two xpander
    configurations. *)
val generator_specs : string list

(** [run ~specs ()] checks every spec; unparsable specs become subjects
    with a single failure. *)
val run : ?max_layers:int -> specs:string list -> unit -> subject list

(** Every failure across the run, prefixed by its subject spec. *)
val failures : subject list -> string list

(** One PASS/FAIL line per subject plus a closing tally. *)
val pp_summary : Format.formatter -> subject list -> unit
