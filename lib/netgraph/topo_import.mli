(** Topology ingestion frontend: parse foreign topology files — a
    Graphviz DOT subset (the Topology-Zoo interchange form) and plain
    whitespace edge lists — into {!Graph.t}, with writers that round-trip.

    Both formats describe a switch-level network; a node becomes a
    terminal only when the file marks it ([kind=terminal] in DOT — what
    {!write_dot} emits). When a file declares {e no} terminals,
    [terminals_per_switch] synthetic terminals (default 1, named
    [<switch>_h<i>]) are attached to every switch so the imported fabric
    is immediately routable.

    {b Strict vs lenient.} Real zoo files are messy: repeated edges,
    self loops, disconnected fragments. [Strict] refuses each with a
    positioned error; [Lenient] repairs — duplicate edge statements
    collapse to one cable, self loops are dropped, and only the largest
    connected component is kept — recording one {!diag} per repair so an
    ingestion pipeline can surface exactly what was cleaned up.

    Intentional parallel cables survive both modes via an explicit
    multiplicity (the [mult=N] edge attribute in DOT, a third column in
    edge lists); only {e repeated statements} for the same endpoint pair
    count as duplicates. *)

type mode =
  | Strict  (** refuse messy input with a positioned error *)
  | Lenient  (** repair and record a {!diag} per repair *)

(** One lenient-mode repair (or informational note), tied to the input
    line that triggered it ([line = 0] for whole-file diagnostics). *)
type diag = {
  line : int;
  message : string;
}

type imported = {
  graph : Graph.t;
  diags : diag list;  (** oldest first; always [[]] in strict mode *)
  dropped_nodes : int;
      (** nodes discarded with smaller components (lenient only) *)
}

type format =
  | Dot
  | Edge_list

(** {1 Formats}

    {!Dot} is the DOT subset: [strict]? ([graph]|[digraph]) name? [{]
    node / edge / attribute statements [}], with [//], [/* */] and [#]
    comments, quoted or bare identifiers, attribute lists (ignored except
    [kind=terminal] and [mult=N]), and [a -- b -- c] edge chains. In a
    [digraph], [a -> b] and [b -> a] pair into one bidirectional cable; an
    unpaired direction is an error in strict mode and a repaired cable in
    lenient. Subgraphs are not supported. Whitespace inside quoted names
    becomes ['_'].

    {!Edge_list} is one cable per line, [<a> <b> [mult]] with [#]
    comments, declaring nodes implicitly. It cannot express terminals:
    the importer synthesizes them. *)

(** {1 Writing} *)

(** Emit the DOT subset: every node quoted, terminals tagged
    [kind=terminal], parallel cables as one edge with [mult=N]. Parsing
    the result back in [Strict] mode reproduces the graph up to node
    ids (names and the cable multiset are preserved). *)
val write_dot : Graph.t -> string

(** {1 Files} *)

(** [load path] reads and parses a file. Unless [format] forces one, a
    [.dot]/[.gv] extension means {!Dot}, an [.edges]/[.edgelist] one
    {!Edge_list}, and otherwise a leading [strict]/[graph]/[digraph] keyword
    means {!Dot}. All failures are [Error "line N: ..."]. *)
val load :
  ?mode:mode ->
  ?format:format ->
  ?terminals_per_switch:int ->
  string ->
  (imported, string) result
