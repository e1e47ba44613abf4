(* Shared helpers for the test suites: string search, qcheck glue, and
   the topology/table generators the property suites have in common. *)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* qcheck-alcotest glue. [count] is explicit: each suite owns its budget
   (test_properties defaults to 40 trials, test_parallel — whose trials
   spawn domains — to 8). *)
let qtest ~count name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let seed_gen = QCheck2.Gen.int_range 0 100_000

(* The fabric mix of the parallel-pipeline suites: ring, torus, XGFT,
   dragonfly — sizes jittered by the seed. *)
let fabric seed =
  match seed mod 4 with
  | 0 -> ("ring", Topo_ring.make ~switches:(6 + (seed mod 5)) ~terminals_per_switch:2)
  | 1 ->
    ( "torus",
      fst (Topo_torus.torus ~dims:[| 3 + (seed mod 3); 3 + (seed / 3 mod 3) |] ~terminals_per_switch:2) )
  | 2 ->
    let ms = [| 2 + (seed mod 2); 3 |] and ws = [| 1; 2 |] in
    ("xgft", Topo_xgft.make ~ms ~ws ~endpoints:(2 * Topo_xgft.num_leaves ~ms))
  | _ -> ("dragonfly", Topo_dragonfly.make ~a:(3 + (seed mod 2)) ~p:2 ~h:2 ())

(* The small irregular fabric most property tests run on. *)
let random_graph ?(switches = 8) ?(switch_radix = 10) ?(terminals = 16) ?(inter_links = 14) rng =
  Topo_random.make ~switches ~switch_radix ~terminals ~inter_links ~rng

(* The CDG of [paths], path [i] under pair id [i]. *)
let cdg_of_paths g paths = Deadlock.Cdg.of_store (Deadlock.Route_store.of_paths g paths)

let same_tables a b = (Routing.Ftable.diff a b).Routing.Ftable.entries_changed = 0

(* DFSSSP through the two entry points that take the knobs: SSSP under
   [kernel], then the offline layer assignment under [engine]. The
   kernel/engine parity cases route through here. *)
let dfsssp ?kernel ?engine ?max_layers g =
  match Routing.Sssp.route ?kernel g with
  | Error msg -> Error msg
  | Ok ft -> Result.map_error Dfsssp.error_to_string (Dfsssp.assign_layers ?engine ?max_layers ft)
