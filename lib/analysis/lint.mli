(** Static linter over forwarding tables — the entry-level and walk-level
    half of the certifier (the certificate side lives in {!Cert}).

    The linter never trusts the code that produced the table: it reads
    entries through [Ftable.next] and [Ftable.layer] and checks each one
    against the fabric it is given, which may differ from the one the
    table was computed for — a degraded fabric, or one whose channel ids
    were re-assigned, where an entry can name a channel out of range or
    one that does not leave its node.

    Rules (see {!Diag.catalog}):
    - entry-level, every (node, destination) entry: A003 port-range,
      A005 dead-entry;
    - walk-level, following the functional graph of each destination from
      every terminal: A001 unreachable-dest (a walk starves at a missing
      entry), A002 forwarding-loop (a walk enters a cycle), A006
      nonminimal-hop-budget (a walk arrives but over budget). Walks that
      die at an entry-level defect are charged to that defect only, so
      every corruption maps to exactly one rule id.
    - pair-level: A004 layer-transition (a route's layer is outside the
      declared layer count). *)

type hop_budget =
  [ `Minimal  (** every route must have min-hop length *)
  | `Slack of int  (** min-hop length plus at most this many extra hops *)
  ]

(** [table ?hop_budget ?graph ft] lints [ft] against [graph] (default:
    the table's own fabric; it must have the same node ids and
    terminals) and returns all findings, grouped per destination in
    rule-id order. Without [hop_budget], A006 is off (routing algorithms
    differ on minimality by design). *)
val table : ?hop_budget:hop_budget -> ?graph:Graph.t -> Ftable.t -> Diag.finding list
