type suggestion = {
  from_switch : string;
  to_switch : string;
  ebb_before : float;
  ebb_after : float;
  gain : float;
}

let ebb_of ?ranks ft ~patterns ~seed =
  let rng = Rng.create seed in
  (Simulator.Congestion.effective_bisection_bandwidth ~patterns ?ranks ~rng ft)
    .Simulator.Congestion.samples
    .Obs.Stat.mean

(* Copy [g] and lay one extra cable between the named switches. *)
let with_cable g ~a ~b =
  let builder = Builder.create () in
  let remap = Builder.add_graph builder g in
  let (_ : int * int) = Builder.add_link builder remap.(a) remap.(b) in
  Builder.build builder

let suggest ?(candidates = 8) ?(patterns = 30) ?(seed = 41) ~algorithm g =
  match Runs.run_named algorithm g with
  | Error msg -> Error msg
  | Ok base_ft ->
    let base = ebb_of base_ft ~patterns ~seed in
    (* candidate endpoints: switches touching the hottest channels under a
       random bisection load, paired greedily, plus random controls *)
    let rng = Rng.create (seed * 31) in
    let flows = Simulator.Patterns.random_bisection rng (Graph.terminals g) in
    let hot = Simulator.Congestion.hotspots ~top:(2 * candidates) base_ft ~flows in
    let switch_named name =
      let found = ref (-1) in
      Array.iter (fun sw -> if (Graph.node g sw).Node.name = name then found := sw) (Graph.switches g);
      !found
    in
    let pairs = Hashtbl.create 16 in
    let add_pair a b = if a >= 0 && b >= 0 && a <> b then Hashtbl.replace pairs (min a b, max a b) () in
    (* parallel relief for each hot channel between two switches *)
    List.iter
      (fun (h : Simulator.Congestion.hotspot) ->
        let a = switch_named h.Simulator.Congestion.src_name
        and b = switch_named h.Simulator.Congestion.dst_name in
        add_pair a b)
      hot;
    (* shortcuts bridging consecutive hot channels (two-hop funnels) *)
    List.iteri
      (fun i (h : Simulator.Congestion.hotspot) ->
        List.iteri
          (fun j (h' : Simulator.Congestion.hotspot) ->
            if i < j && h.Simulator.Congestion.dst_name = h'.Simulator.Congestion.src_name then
              add_pair
                (switch_named h.Simulator.Congestion.src_name)
                (switch_named h'.Simulator.Congestion.dst_name))
          hot)
      hot;
    (* random controls *)
    let switches = Graph.switches g in
    if Array.length switches >= 2 then
      for _ = 1 to 2 do
        let a = Rng.pick rng switches and b = Rng.pick rng switches in
        add_pair a b
      done;
    let all = Hashtbl.fold (fun k () acc -> k :: acc) pairs [] in
    let all = List.sort compare all in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: tl -> x :: take (n - 1) tl
    in
    let evaluated =
      List.filter_map
        (fun (a, b) ->
          let g' = with_cable g ~a ~b in
          match Runs.run_named algorithm g' with
          | Error _ -> None
          | Ok ft' ->
            let after = ebb_of ft' ~patterns ~seed in
            Some
              {
                from_switch = (Graph.node g a).Node.name;
                to_switch = (Graph.node g b).Node.name;
                ebb_before = base;
                ebb_after = after;
                gain = (if base > 0.0 then (after -. base) /. base else 0.0);
              })
        (take candidates all)
    in
    Ok (List.sort (fun s1 s2 -> compare s2.gain s1.gain) evaluated)
