type params = {
  scale : int;
  patterns : int;
  max_endpoints : int;
  trials : int;
  domains : int option;
}

type t = {
  id : string;
  title : string;
  full_scale : bool;
  run : params -> Report.table;
}

(* Fig. 2: the ring deadlock, demonstrated on the packet simulator in
   packet time (a flow's bytes are its packets). *)
let fig2 _ =
  let ring = Topo_ring.make ~switches:5 ~terminals_per_switch:1 in
  let terminals = Graph.terminals ring in
  let flows = Array.init 5 (fun i -> (terminals.(i), terminals.((i + 2) mod 5), 64)) in
  let outcome = function
    | Simulator.Netsim.Completed { makespan; packets; _ } ->
      Printf.sprintf "delivered %d packets in %.0f packet times" packets makespan
    | Simulator.Netsim.Deadlocked { time; delivered; stuck } ->
      Printf.sprintf "DEADLOCK at packet time %.0f (%d delivered, %d stuck)" time delivered stuck
    | Simulator.Netsim.Out_of_events { delivered } -> Printf.sprintf "out of events (%d delivered)" delivered
  in
  let row name ~vls = function
    | Error e -> [ Report.Str name; Report.Missing; Report.Str ("routing failed: " ^ e) ]
    | Ok ft ->
      let config = { Simulator.Netsim.packet_config with num_vls = vls } in
      [
        Report.Str name;
        Report.Int (Ftable.num_layers ft);
        Report.Str (outcome (Simulator.Netsim.run ~config ft ~flows));
      ]
  in
  {
    Report.title = "Fig. 2: ring deadlock (5 switches, packet-level simulation)";
    columns = [ "routing"; "layers"; "outcome" ];
    rows =
      [
        row "SSSP (1 VL)" ~vls:1 (Sssp.route ring);
        row "DFSSSP (8 VLs)" ~vls:8 (Result.map_error Dfsssp.error_to_string (Dfsssp.route ring));
      ];
    notes = [];
  }

let planner p =
  let g = (Clusters.deimos ~scale:8 ()).Clusters.graph in
  let rows, notes =
    match Planner.suggest ~candidates:5 ~patterns:p.patterns ~algorithm:"dfsssp" g with
    | Error e -> ([], [ "planner failed: " ^ e ])
    | Ok suggestions ->
      ( List.map
          (fun (s : Planner.suggestion) ->
            Report.
              [ Str s.from_switch; Str s.to_switch; Flt s.ebb_before; Flt s.ebb_after; Pct s.gain ])
          suggestions,
        [] )
  in
  {
    Report.title = "Capacity planner: best cable upgrades on the Deimos stand-in (scale 1/8, dfsssp)";
    columns = [ "from"; "to"; "eBB before"; "eBB after"; "gain" ];
    rows;
    notes;
  }

let entry ?(full_scale = false) id title run = { id; title; full_scale; run }

let all =
  [
    entry "fig2" "Fig. 2: ring deadlock (packet-level simulation)" fig2;
    entry "table1" "Table I: topology generator parameters" (fun _ -> Tableone.table ());
    entry "fig4" "Fig. 4: eBB on real systems" (fun p ->
        Fig_bandwidth.fig4 ~scale:p.scale ~patterns:p.patterns ?domains:p.domains ());
    entry "fig5" "Fig. 5: eBB on XGFT sweep" (fun p ->
        Fig_bandwidth.fig5 ~max_endpoints:p.max_endpoints ~patterns:p.patterns ?domains:p.domains ());
    entry "fig6" "Fig. 6: eBB on Kautz sweep" (fun p ->
        Fig_bandwidth.fig6 ~max_endpoints:p.max_endpoints ~patterns:p.patterns ?domains:p.domains ());
    entry "fig7" "Fig. 7: routing runtime on k-ary n-trees" (fun p ->
        Fig_runtime.fig7 ~max_endpoints:p.max_endpoints ?domains:p.domains ());
    entry "fig8" "Fig. 8: routing runtime on real systems" (fun p ->
        Fig_runtime.fig8 ~scale:p.scale ?domains:p.domains ());
    entry "fig9" "Fig. 9: virtual lanes on random topologies" (fun p -> Fig_vls.fig9 ~trials:p.trials ());
    entry ~full_scale:true "fig9-full" "Fig. 9 at the paper's size (128 switches, radix 32)" (fun p ->
        Fig_vls.fig9 ~switches:128 ~switch_radix:32 ~terminals_per_switch:16 ~trials:p.trials ());
    entry "fig10" "Fig. 10: virtual lanes on real systems" (fun p -> Fig_vls.fig10 ~scale:p.scale ());
    entry "heuristics" "Section IV: cycle-breaking heuristic comparison" (fun p ->
        Fig_vls.heuristics ~trials:p.trials ());
    entry "fig12" "Fig. 12: Netgauge-style eBB on Deimos" (fun p ->
        Fig_deimos.fig12 ~scale:p.scale ~patterns:p.patterns ());
    entry "fig12-dynamic" "Fig. 12 (dynamic): achieved pair bandwidth on Deimos" (fun p ->
        Fig_deimos.fig12_dynamic ~scale:p.scale ());
    entry "fig13" "Fig. 13: all-to-all time vs message size" (fun p -> Fig_deimos.fig13 ~scale:p.scale ());
    entry "fig14" "Fig. 14: NAS BT scaling" (fun p -> Fig_deimos.fig14 ~scale:p.scale ());
    entry "fig15" "Fig. 15: NAS SP scaling" (fun p -> Fig_deimos.fig15 ~scale:p.scale ());
    entry "fig16" "Fig. 16: NAS FT scaling" (fun p -> Fig_deimos.fig16 ~scale:p.scale ());
    entry "table2" "Table II: NAS improvements" (fun p -> Fig_deimos.table2 ~scale:p.scale ());
    entry "initial-weight" "Ablation: SSSP initial weight (Fig. 1)" (fun _ ->
        Ablations.sssp_initial_weight ());
    entry "hardened" "Ablation: hardened routings" (fun p ->
        Ablations.hardened_routings ~patterns:p.patterns ());
    entry "dragonfly" "Extension: dragonfly" (fun p -> Ablations.dragonfly ~patterns:p.patterns ());
    entry "balancing" "Ablation: layer balancing" (fun _ -> Ablations.balancing ());
    entry "complexity" "Complexity (Props. 1-2)" (fun p ->
        Ablations.complexity ~max_endpoints:p.max_endpoints ());
    entry "online-engines" "Ablation: online cycle-check engines" (fun p ->
        Ablations.online_engines ~max_endpoints:p.max_endpoints ());
    entry "quality" "Quality: path length and balance" (fun _ -> Ablations.routing_quality ());
    entry "vl-budget" "Ablation: virtual-lane budget" (fun _ -> Ablations.vl_budget ());
    entry "multipath" "Extension: multipath (LMC)" (fun _ -> Ablations.multipath ());
    entry "collectives" "Extension: phased collectives" (fun _ -> Ablations.collectives ());
    entry "adversarial" "Extension: adversarial patterns" (fun _ -> Ablations.adversarial_patterns ());
    entry "growth" "Growth: fat tree accretes extensions" (fun p -> Growth.sweep ~patterns:p.patterns ());
    entry "planner" "Capacity planner (Deimos)" planner;
    entry "fault-torus" "Fault tolerance (torus)" (fun p ->
        Fault_tolerance.sweep ~fabric:Fault_tolerance.Torus ~patterns:p.patterns ());
    entry "fault-fattree" "Fault tolerance (fat tree)" (fun p ->
        Fault_tolerance.sweep ~fabric:Fault_tolerance.Fat_tree ~patterns:p.patterns ());
  ]
