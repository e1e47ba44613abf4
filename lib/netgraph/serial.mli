(** Plain-text topology interchange format (DOT export is
    {!Topo_import.write_dot}).

    The format is line-oriented (comments start with [#]):
    {v
    switch <name>
    terminal <name> <switch-name>
    link <name-a> <name-b> [multiplicity]
    v}
    Node names may not contain whitespace. [link] lines lay bidirectional
    cables between two switches (or a switch and an already-declared
    terminal's switch is not allowed — terminals get their cable from the
    [terminal] line). *)

(** Render a graph in the text format. Round-trips with {!of_string} up to
    node ids (names and the multiset of cables are preserved). *)
val to_string : Graph.t -> string

(** Parse the text format.
    Returns [Error message] (with a line number) on malformed input. *)
val of_string : string -> (Graph.t, string) result

val load : string -> (Graph.t, string) result
