let algorithms = [ "minhop"; "lash"; "dfsssp" ]

(* Deimos point-to-point peak (paper: PCIe 1.1 HCAs). *)
let link_bandwidth = 946e6

(* Scatter [cores] MPI ranks over the fabric: a random node subset first
   (one rank per node), then round-robin (multi-core nodes), as the paper
   did for its 1024-core runs on 250 nodes. Returns rank -> terminal. *)
let place_ranks ~rng ~cores g =
  let terminals = Array.copy (Graph.terminals g) in
  Rng.shuffle rng terminals;
  let n = Array.length terminals in
  Array.init cores (fun i -> terminals.(i mod n))

let map_flows rank_of flows = Array.map (fun (a, b) -> (rank_of.(a), rank_of.(b))) flows

let routed_systems ~scale =
  let g = (Clusters.deimos ~scale ()).Clusters.graph in
  let fts =
    List.filter_map
      (fun name ->
        match Runs.run_named name g with
        | Ok ft -> Some (name, ft)
        | Error _ -> None)
      algorithms
  in
  (g, fts)

let scale_cores scale cores = List.map (fun c -> max 4 (c / scale)) cores

let fig12 ?(scale = 4) ?cores ?(patterns = 50) ?(seed = 3) () =
  let cores = Option.value ~default:(scale_cores scale [ 128; 256; 512; 1024 ]) cores in
  let g, fts = routed_systems ~scale in
  let rows =
    List.map
      (fun c ->
        let rng = Rng.create ((seed * 131) + c) in
        let ranks = Runs.sample_ranks ~rng ~count:c g in
        Report.Int c
        :: List.map
             (fun name ->
               match List.assoc_opt name fts with
               | None -> Report.Missing
               | Some ft ->
                 let rng = Rng.create ((seed * 977) + c) in
                 let ebb =
                   Simulator.Congestion.effective_bisection_bandwidth ~patterns ~ranks ~rng ft
                 in
                 Report.Flt ebb.Simulator.Congestion.samples.Obs.Stat.mean)
             algorithms)
      cores
  in
  {
    Report.title = Printf.sprintf "Fig. 12: Netgauge-style eBB on Deimos stand-in (scale 1/%d)" scale;
    columns = "cores" :: algorithms;
    rows;
    notes = [ Printf.sprintf "%d random pairings per cell; share of wire speed per pair" patterns ];
  }

let fig12_dynamic ?(scale = 4) ?cores ?(matchings = 3) ?(seed = 3) () =
  let cores = Option.value ~default:(scale_cores scale [ 128; 256; 512; 1024 ]) cores in
  let g, fts = routed_systems ~scale in
  let bytes = 1 lsl 20 in
  let rows =
    List.map
      (fun c ->
        let cell name =
          match List.assoc_opt name fts with
          | None -> Report.Missing
          | Some ft ->
            (* matchings are independent: fan out over domains *)
            let per_matching =
              Parallel.init ~domains:(Parallel.recommended_domains ()) matchings (fun m ->
                  let rng = Rng.create ((seed * 389) + (m * 17) + c) in
                  let ranks = Runs.sample_ranks ~rng ~count:c g in
                  let pairs = Simulator.Patterns.random_bisection rng ranks in
                  let flows = Array.map (fun (a, b) -> (a, b, bytes)) pairs in
                  match Simulator.Netsim.run ft ~flows with
                  | Simulator.Netsim.Completed { flows = st; _ } ->
                    Array.to_list (Array.map Simulator.Netsim.bandwidth_of st)
                  | Simulator.Netsim.Deadlocked _ | Simulator.Netsim.Out_of_events _ -> [])
            in
            (match List.concat (Array.to_list per_matching) with
            | [] -> Report.Missing
            | l ->
              let mean = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
              Report.Flt (mean /. 1e6))
        in
        Report.Int c :: List.map cell algorithms)
      cores
  in
  {
    Report.title =
      Printf.sprintf "Fig. 12 (dynamic): achieved pair bandwidth [MB/s] on Deimos stand-in (scale 1/%d)"
        scale;
    columns = "cores" :: algorithms;
    rows;
    notes =
      [
        Printf.sprintf "discrete-event simulation, %d matchings x 1 MiB per pair, 1 GB/s links" matchings;
        "dynamic head-of-line effects included - compare against the static Fig. 12";
      ];
  }

let fig13 ?(scale = 4) ?cores ?(float_counts = [ 4; 16; 64; 256; 1024; 4096 ]) ?(seed = 5) () =
  let cores = Option.value ~default:(max 4 (128 / scale)) cores in
  let g, fts = routed_systems ~scale in
  let rng = Rng.create seed in
  let rank_terminal = place_ranks ~rng ~cores g in
  let rank_ids = Array.init cores Fun.id in
  let flows = map_flows rank_terminal (Simulator.Patterns.all_to_all rank_ids) in
  let rows =
    List.map
      (fun floats ->
        let bytes = float_of_int (floats * 4) in
        Report.Int floats
        :: List.map
             (fun name ->
               match List.assoc_opt name fts with
               | None -> Report.Missing
               | Some ft ->
                 Report.Time
                   (Simulator.Congestion.completion_time ft ~flows ~bytes ~bandwidth:link_bandwidth))
             algorithms)
      float_counts
  in
  {
    Report.title =
      Printf.sprintf "Fig. 13: all-to-all completion vs message size, %d ranks, Deimos stand-in (scale 1/%d)"
        cores scale;
    columns = "floats" :: algorithms;
    rows;
    notes = [ "static congestion model: time = bytes * bottleneck-load / link-bandwidth" ];
  }

(* NAS kernel model constants: serial work (seconds of aggregated compute,
   arbitrary calibration), per-pair bytes at the reference core count, and
   the strong-scaling exponent of the per-pair message size. The absolute
   units cancel in the MinHop-vs-DFSSSP comparison the paper reports. *)
type kernel_model = {
  pattern : int array -> (Simulator.Patterns.flow array, string) result;
  serial_work : float;
  bytes_at_ref : float; (* per-pair bytes at ref_cores *)
  ref_cores : int;
  size_exponent : float; (* bytes(p) = bytes_at_ref * (ref/p)^e *)
}

let kernel_models =
  [
    ("BT", { pattern = Simulator.Patterns.nas_bt; serial_work = 600.0; bytes_at_ref = 2.0e7; ref_cores = 128; size_exponent = 0.5 });
    ("SP", { pattern = Simulator.Patterns.nas_sp; serial_work = 400.0; bytes_at_ref = 3.0e7; ref_cores = 128; size_exponent = 0.5 });
    ("FT", { pattern = Simulator.Patterns.nas_ft; serial_work = 300.0; bytes_at_ref = 3.0e6; ref_cores = 128; size_exponent = 2.0 });
    ("CG", { pattern = Simulator.Patterns.nas_cg; serial_work = 250.0; bytes_at_ref = 2.0e7; ref_cores = 128; size_exponent = 1.0 });
    ("LU", { pattern = Simulator.Patterns.nas_lu; serial_work = 500.0; bytes_at_ref = 1.0e7; ref_cores = 128; size_exponent = 0.5 });
    ("MG", { pattern = Simulator.Patterns.nas_mg; serial_work = 350.0; bytes_at_ref = 1.5e7; ref_cores = 128; size_exponent = 1.0 });
  ]

(* BT/SP need square rank counts; the paper uses 121/256/484/1024. *)
let default_cores kernel =
  match kernel with
  | "BT" | "SP" -> [ 121; 256; 484; 1024 ]
  | _ -> [ 128; 256; 512; 1024 ]

let square_down n =
  let r = int_of_float (sqrt (float_of_int n)) in
  let r = if (r + 1) * (r + 1) <= n then r + 1 else r in
  max 2 r * max 2 r

let pow2_down n =
  let rec go p = if p * 2 <= n then go (p * 2) else p in
  go 1

(* Scaled-down runs keep each kernel's rank-count constraint. *)
let fit_cores kernel c =
  match kernel with
  | "BT" | "SP" -> square_down c
  | "FT" | "CG" | "MG" -> max 2 (pow2_down c)
  | _ -> max 2 c

(* Per-iteration time: perfectly-scaling compute plus sustained-rate
   communication. The communication term uses the MEAN bottleneck load
   over flows (1/mean share), the same quantity as effective bisection
   bandwidth: NAS kernels overlap many exchanges, so sustained throughput,
   not the single worst flow, gates the iteration. *)
let kernel_time model ~flows ~cores ~routing_ft =
  let bytes =
    model.bytes_at_ref *. ((float_of_int model.ref_cores /. float_of_int cores) ** model.size_exponent)
  in
  let r = Simulator.Congestion.evaluate routing_ft ~flows in
  let mean_bottleneck = 1.0 /. r.Simulator.Congestion.mean_share in
  let t_comm = bytes *. mean_bottleneck /. link_bandwidth in
  let t_comp = model.serial_work /. float_of_int cores in
  t_comp +. t_comm

let nas_figure ~kernel ?(scale = 4) ?cores ?(seed = 9) () =
  match List.assoc_opt kernel kernel_models with
  | None -> Error (Printf.sprintf "unknown NAS kernel %S" kernel)
  | Some model ->
    let cores = Option.value ~default:(scale_cores scale (default_cores kernel)) cores in
    let cores = List.sort_uniq compare (List.map (fit_cores kernel) cores) in
    let g, fts = routed_systems ~scale in
    let rows =
      List.filter_map
        (fun c ->
          let rng = Rng.create ((seed * 131) + c) in
          let rank_terminal = place_ranks ~rng ~cores:c g in
          let rank_ids = Array.init c Fun.id in
          match model.pattern rank_ids with
          | Error _ -> None
          | Ok flows_idx ->
            let flows = map_flows rank_terminal flows_idx in
            Some
              (Report.Int c
              :: List.map
                   (fun name ->
                     match List.assoc_opt name fts with
                     | None -> Report.Missing
                     | Some ft ->
                       let t = kernel_time model ~flows ~cores:c ~routing_ft:ft in
                       (* arbitrary Gflop/s scale: total work / time *)
                       Report.Flt (model.serial_work /. t))
                   algorithms))
        cores
    in
    Ok
      {
        Report.title =
          Printf.sprintf "NAS %s scaling on Deimos stand-in (scale 1/%d, modelled Gflop/s)" kernel scale;
        columns = "cores" :: algorithms;
        rows;
        notes = [ "two-term performance model; constants in EXPERIMENTS.md; ratios are the result" ];
      }

let table2 ?(scale = 4) ?cores ?(seed = 9) () =
  let cores = Option.value ~default:(max 16 (1024 / scale)) cores in
  let g, fts = routed_systems ~scale in
  let rows =
    List.filter_map
      (fun (kernel, model) ->
        let c = fit_cores kernel cores in
        let rng = Rng.create ((seed * 131) + c) in
        let rank_terminal = place_ranks ~rng ~cores:c g in
        let rank_ids = Array.init c Fun.id in
        match model.pattern rank_ids with
        | Error _ -> None
        | Ok flows_idx ->
          let flows = map_flows rank_terminal flows_idx in
          let perf name =
            match List.assoc_opt name fts with
            | None -> None
            | Some ft -> Some (model.serial_work /. kernel_time model ~flows ~cores:c ~routing_ft:ft)
          in
          (match (perf "minhop", perf "dfsssp") with
          | Some base, Some ours ->
            Some
              [
                Report.Str kernel;
                Report.Int c;
                Report.Flt base;
                Report.Flt ours;
                Report.Pct ((ours -. base) /. base);
              ]
          | _ -> None))
      kernel_models
  in
  {
    Report.title = Printf.sprintf "Table II: NAS kernels at %d (scaled) cores, Deimos stand-in" cores;
    columns = [ "kernel"; "cores"; "minhop"; "dfsssp"; "improvement" ];
    rows;
    notes = [ "paper reports +30.6% .. +95.1% at 1024 cores on the real machine" ];
  }
