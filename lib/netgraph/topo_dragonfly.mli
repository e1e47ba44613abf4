(** Dragonfly topologies (Kim, Dally, Scott, Abts) — an extension beyond
    the paper's evaluation set: minimal routes take a local-global-local
    shape whose channel dependencies are cyclic across groups, so a
    general deadlock-free routing is genuinely exercised.

    dragonfly(a, p, h): groups of [a] fully-connected switches, [p]
    terminals and [h] global cables per switch; with the canonical
    [a*h + 1] groups every group pair shares exactly one global cable. *)

(** [make ~a ~p ~h ?groups ()] builds the fabric. [groups] defaults to
    [a*h + 1] and must satisfy [2 <= groups <= a*h + 1].
    @raise Invalid_argument on parameter violations. *)
val make : a:int -> p:int -> h:int -> ?groups:int -> unit -> Graph.t
