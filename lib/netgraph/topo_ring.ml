let make ~switches ~terminals_per_switch =
  if switches < 3 then invalid_arg "Topo_ring.make: need at least 3 switches";
  if terminals_per_switch < 0 then invalid_arg "Topo_ring.make: negative terminals";
  Builder.check_nodes ~what:"Topo_ring.make"
    (Builder.size_product [ switches ] + Builder.size_product [ switches; terminals_per_switch ]);
  let b = Builder.create () in
  let sw = Array.init switches (fun i -> Builder.add_switch b ~name:(Printf.sprintf "s%d" i)) in
  for i = 0 to switches - 1 do
    let (_ : int * int) = Builder.add_link b sw.(i) sw.((i + 1) mod switches) in
    for j = 0 to terminals_per_switch - 1 do
      let (_ : int) = Builder.add_terminal b ~name:(Printf.sprintf "t%d_%d" i j) ~switch:sw.(i) in
      ()
    done
  done;
  Builder.build b
