(** The class-keyed dependency extraction the shipped certifier used
    before it read the table's destination trees
    ({!Analysis.Cert.Routes.of_table}): a table's route classes, each
    riding every layer one of its pairs rides, plus one injection hop
    [(entry, first channel of its class)] per pair in the pair's layer.
    The parity suites compare the tree form's verdicts, [stuck] counts
    and certificates with it. *)

(** [routes ft cls] is that dependency set as per-pair routes
    ({!Analysis.Cert.Routes.of_store}): one slice per (class, layer) and
    one two-channel slice per distinct injection hop and layer. *)
val routes : Routing.Ftable.t -> Routing.Ftable.classes -> Analysis.Cert.Routes.t
