let routes ft (cls : Routing.Ftable.classes) =
  let store = cls.Routing.Ftable.store in
  let g = Routing.Ftable.graph ft in
  let nt = Graph.num_terminals g in
  let buf = Route_store.buffer store
  and off = Route_store.offsets store
  and len = Route_store.lengths store in
  let layer = Routing.Ftable.pair_layers ft in
  let rides = Hashtbl.create 64 and hops = Hashtbl.create 64 in
  for si = 0 to nt - 1 do
    for di = 0 to nt - 1 do
      let p = (si * nt) + di in
      let k = cls.Routing.Ftable.class_of_pair.(p) in
      if k >= 0 then begin
        let l = layer.(p) in
        Hashtbl.replace rides (k, l) ();
        if len.(k) > 0 then
          Hashtbl.replace hops (l, Routing.Ftable.entry ft ~src_index:si ~dst_index:di, buf.(off.(k))) ()
      end
    done
  done;
  let sorted h = List.sort compare (Hashtbl.fold (fun x () acc -> x :: acc) h []) in
  let slices =
    List.map (fun (k, l) -> (Route_store.to_path store ~pair:k, l)) (sorted rides)
    @ List.map (fun (l, e, f) -> ([| e; f |], l)) (sorted hops)
  in
  let out = Route_store.create g ~capacity:(List.length slices) in
  let layer_of_path = Array.make (List.length slices) (-1) in
  List.iteri
    (fun i (path, l) ->
      Route_store.set_path out ~pair:i path;
      layer_of_path.(i) <- l)
    slices;
  Analysis.Cert.Routes.of_store out ~layer_of_path
