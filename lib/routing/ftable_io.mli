(** Persistence for complete routing results — fabric, forwarding tables,
    and virtual-lane assignment in one self-contained text artifact.
    Useful for caching expensive routings, diffing algorithm outputs, and
    feeding external analysis (the role of ORCS input files in the paper's
    toolchain: "a directed graph representation of the network, which also
    includes the routing information").

    Format (line-oriented, [#] comments):
    {v
    routing <algorithm> layers <n>
    <topology section, Netgraph.Serial format, terminated by 'endtopology'>
    entry <node-name> <dst-terminal-name> <via-neighbor-name> <k>
    lane <src-terminal-name> <dst-terminal-name> <vl>
    v}
    A forwarding entry names the neighbour the channel leads to plus the
    occurrence index [k] among parallel cables to that neighbour (0-based,
    in construction order) — a reference that is stable across the
    topology round trip even though {!Netgraph.Serial} canonicalizes link
    order. [lane] lines with lane 0 are omitted. *)

val to_string : Ftable.t -> string

val load : string -> (Ftable.t, string) result
