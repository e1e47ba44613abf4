type phases = { splices : int; components : int }

let make_phases ~switches ~ports ~net_ports ~rng =
  if switches < 2 then invalid_arg "Topo_jellyfish.make: switches < 2";
  if net_ports < 2 then invalid_arg "Topo_jellyfish.make: net_ports < 2";
  if net_ports > ports then invalid_arg "Topo_jellyfish.make: net_ports > ports";
  if net_ports >= switches then invalid_arg "Topo_jellyfish.make: net_ports >= switches";
  Builder.check_nodes ~what:"Topo_jellyfish.make"
    (Builder.size_product [ switches ] + Builder.size_product [ switches; ports - net_ports ]);
  let adjacent = Hashtbl.create (switches * net_ports) in
  let key a b = (min a b, max a b) in
  let degree = Array.make switches 0 in
  let edges = ref [] in
  let num_edges = ref 0 in
  let add a b =
    Hashtbl.replace adjacent (key a b) ();
    degree.(a) <- degree.(a) + 1;
    degree.(b) <- degree.(b) + 1;
    edges := (a, b) :: !edges;
    incr num_edges
  in
  let remove a b =
    Hashtbl.remove adjacent (key a b);
    degree.(a) <- degree.(a) - 1;
    degree.(b) <- degree.(b) - 1;
    edges := List.filter (fun e -> e <> (a, b) && e <> (b, a)) !edges;
    decr num_edges
  in
  let free s = net_ports - degree.(s) in
  let linked a b = Hashtbl.mem adjacent (key a b) in
  (* Phase 1 (the paper's incremental construction): keep linking
     uniformly random non-adjacent pairs that both have free ports. *)
  let candidates () =
    let acc = ref [] in
    for a = 0 to switches - 1 do
      if free a > 0 then
        for b = a + 1 to switches - 1 do
          if free b > 0 && not (linked a b) then acc := (a, b) :: !acc
        done
    done;
    Array.of_list (List.rev !acc)
  in
  let rec fill () =
    let c = candidates () in
    if Array.length c > 0 then begin
      let a, b = Rng.pick rng c in
      add a b;
      fill ()
    end
  in
  fill ();
  (* Phase 2: a switch still holding >= 2 free ports splices itself into
     a random cable neither of whose ends it already touches. *)
  let splices = ref 0 in
  let rec splice () =
    let stuck = ref [] in
    for s = 0 to switches - 1 do
      if free s >= 2 then stuck := s :: !stuck
    done;
    match List.rev !stuck with
    | [] -> ()
    | stuck ->
      let order = Array.of_list stuck in
      Rng.shuffle rng order;
      let spliced = ref false in
      Array.iter
        (fun u ->
          if not !spliced then begin
            let usable =
              List.filter
                (fun (x, y) -> x <> u && y <> u && not (linked u x) && not (linked u y))
                !edges
            in
            match usable with
            | [] -> () (* nothing to splice this switch into *)
            | usable ->
              let x, y = Rng.pick rng (Array.of_list (List.rev usable)) in
              remove x y;
              add u x;
              add u y;
              incr splices;
              spliced := true
          end)
        order;
      if !spliced then splice ()
  in
  splice ();
  let splices = !splices in
  let dsu = Dsu.create switches in
  List.iter (fun (a, b) -> ignore (Dsu.union dsu a b)) !edges;
  let components = Dsu.count dsu in
  let edges = Rewire.connect_components ~switches ~edges:(List.rev !edges) ~rng in
  let b = Builder.create () in
  let sw = Array.init switches (fun i -> Builder.add_switch b ~name:(Printf.sprintf "s%d" i)) in
  let terminals_per_switch = ports - net_ports in
  for s = 0 to switches - 1 do
    for t = 0 to terminals_per_switch - 1 do
      let (_ : int) =
        Builder.add_terminal b ~name:(Printf.sprintf "t%d_%d" s t) ~switch:sw.(s)
      in
      ()
    done
  done;
  List.iter (fun (x, y) -> ignore (Builder.add_link b sw.(x) sw.(y))) edges;
  (Builder.build b, { splices; components })

let make ~switches ~ports ~net_ports ~rng = fst (make_phases ~switches ~ports ~net_ports ~rng)
