let make ~dim ~terminals_per_switch =
  if dim < 1 then invalid_arg "Topo_hypercube.make: dim < 1";
  if terminals_per_switch < 0 then invalid_arg "Topo_hypercube.make: negative terminals";
  let switches = Builder.size_power 2 dim in
  Builder.check_nodes ~what:"Topo_hypercube.make"
    (switches + Builder.size_product [ switches; terminals_per_switch ]);
  Topo_torus.mesh ~dims:(Array.make dim 2) ~terminals_per_switch
