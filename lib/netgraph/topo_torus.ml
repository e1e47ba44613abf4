let coord_name coord =
  String.concat "_" (Array.to_list (Array.map string_of_int coord))

let make ~dims ~wrap ~terminals_per_switch =
  let ndims = Array.length dims in
  if ndims = 0 then invalid_arg "Topo_torus.make: empty dims";
  if Array.length wrap <> ndims then invalid_arg "Topo_torus.make: dims/wrap mismatch";
  Array.iter (fun d -> if d < 1 then invalid_arg "Topo_torus.make: dimension size < 1") dims;
  if terminals_per_switch < 0 then invalid_arg "Topo_torus.make: negative terminals";
  let total = Builder.size_product (Array.to_list dims) in
  Builder.check_nodes ~what:"Topo_torus.make" (total + Builder.size_product [ total; terminals_per_switch ]);
  let coords = Coords.make ~dims ~wrap in
  let b = Builder.create () in
  (* Mixed-radix enumeration: linear index -> coordinate. *)
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
  let sw = Array.make total (-1) in
  for i = 0 to total - 1 do
    let c = coord_of_index i in
    sw.(i) <- Builder.add_switch b ~name:("s" ^ coord_name c);
    Coords.set coords ~node:sw.(i) ~coord:c
  done;
  for i = 0 to total - 1 do
    let c = coord_of_index i in
    for d = 0 to ndims - 1 do
      (* Positive-direction neighbour only, to add each cable once. *)
      if c.(d) + 1 < dims.(d) then begin
        let c' = Array.copy c in
        c'.(d) <- c.(d) + 1;
        let (_ : int * int) = Builder.add_link b sw.(i) sw.(index_of_coord c') in
        ()
      end
      else if wrap.(d) && dims.(d) > 2 then begin
        let c' = Array.copy c in
        c'.(d) <- 0;
        let (_ : int * int) = Builder.add_link b sw.(i) sw.(index_of_coord c') in
        ()
      end
    done;
    for j = 0 to terminals_per_switch - 1 do
      let (_ : int) = Builder.add_terminal b ~name:(Printf.sprintf "t%s_%d" (coord_name c) j) ~switch:sw.(i) in
      ()
    done
  done;
  (Builder.build b, coords)

let torus ~dims ~terminals_per_switch =
  make ~dims ~wrap:(Array.make (Array.length dims) true) ~terminals_per_switch

let mesh ~dims ~terminals_per_switch =
  make ~dims ~wrap:(Array.make (Array.length dims) false) ~terminals_per_switch
