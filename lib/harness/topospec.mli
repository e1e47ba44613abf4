(** Parse compact command-line topology specifications into fabrics. Every
    [fabric_tool] subcommand takes its SPEC through this parser, and it is
    handy in user scripts.

    Grammar (parameters after [:]):
    - [ring:<switches>[:<terminals_per_switch>]]
    - [torus:<d1>x<d2>[x...][:<terminals_per_switch>]] (also [mesh:...])
    - [hypercube:<dim>[:<terminals_per_switch>]]
    - [tree:<k>,<n>[:<endpoints>]] — k-ary n-tree
    - [xgft:<m1>,..,<mh>/<w1>,..,<wh>[:<endpoints>]]
    - [kautz:<b>,<n>[:<endpoints>]]
    - [dragonfly:<a>,<p>,<h>[:<groups>]]
    - [hyperx:<d1>x<d2>[x...][:<terminals_per_switch>]]
    - [random:<switches>,<radix>,<terminals>,<links>[:<seed>]]
    - [jellyfish:<switches>,<ports>,<net_ports>[:<seed>]] — {!Netgraph.Topo_jellyfish}
    - [xpander:<degree>,<lift>[,<terminals_per_switch>][:<seed>]] — {!Netgraph.Topo_xpander}
    - [cluster:<name>[:<scale>]] — chic|juropa|odin|ranger|tsubame|deimos
    - [file:<path>] — the {!Netgraph.Serial} text format
    - [dot:<path>[:<terminals_per_switch>]] — DOT subset via {!Netgraph.Topo_import}
      (lenient mode: repairs are applied and counted in the description)
    - [edgelist:<path>[:<terminals_per_switch>]] — whitespace edge list via
      {!Netgraph.Topo_import}

    Grid topologies also return coordinates (enabling DOR). Unknown kinds
    produce an error naming the offending token with a nearest-match
    suggestion. *)

type t = {
  graph : Graph.t;
  coords : Coords.t option;
  description : string;
}

val parse : string -> (t, string) result

(** One line per supported form, for [--help] texts. *)
val grammar_lines : string list
