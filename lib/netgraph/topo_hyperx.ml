let make ~dims ~terminals_per_switch =
  let ndims = Array.length dims in
  if ndims = 0 then invalid_arg "Topo_hyperx.make: empty dims";
  Array.iter (fun d -> if d < 2 then invalid_arg "Topo_hyperx.make: dimension size < 2") dims;
  if terminals_per_switch < 0 then invalid_arg "Topo_hyperx.make: negative terminals";
  let total = Builder.size_product (Array.to_list dims) in
  Builder.check_nodes ~what:"Topo_hyperx.make" (total + Builder.size_product [ total; terminals_per_switch ]);
  let coords = Coords.make ~dims ~wrap:(Array.make ndims false) in
  let b = Builder.create () in
  let coord_of_index idx =
    let c = Array.make ndims 0 in
    let rest = ref idx in
    for d = ndims - 1 downto 0 do
      c.(d) <- !rest mod dims.(d);
      rest := !rest / dims.(d)
    done;
    c
  in
  let index_of_coord c =
    let idx = ref 0 in
    for d = 0 to ndims - 1 do
      idx := (!idx * dims.(d)) + c.(d)
    done;
    !idx
  in
  let name c = String.concat "_" (Array.to_list (Array.map string_of_int c)) in
  let sw = Array.make total (-1) in
  for i = 0 to total - 1 do
    let c = coord_of_index i in
    sw.(i) <- Builder.add_switch b ~name:("x" ^ name c);
    Coords.set coords ~node:sw.(i) ~coord:c
  done;
  (* full connectivity within every dimension row: cables to strictly
     greater coordinates only, so each appears once *)
  for i = 0 to total - 1 do
    let c = coord_of_index i in
    for d = 0 to ndims - 1 do
      for x = c.(d) + 1 to dims.(d) - 1 do
        let c' = Array.copy c in
        c'.(d) <- x;
        let (_ : int * int) = Builder.add_link b sw.(i) sw.(index_of_coord c') in
        ()
      done
    done;
    for t = 0 to terminals_per_switch - 1 do
      let (_ : int) = Builder.add_terminal b ~name:(Printf.sprintf "t%s_%d" (name c) t) ~switch:sw.(i) in
      ()
    done
  done;
  (Builder.build b, coords)
