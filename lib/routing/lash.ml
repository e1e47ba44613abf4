(* LASH computes its own minimum-hop routes with no port balancing: the
   original optimizes layer usage, not link load — which is why its
   bandwidth trails MinHop/SSSP on fat trees (paper Fig. 5) while staying
   competitive on Kautz graphs. Min-hop ties are broken by a
   per-destination hash, mimicking OpenSM's discovery-order-dependent BFS
   trees: destinations do not share one canonical tree, so dependencies
   are diverse (this diversity is what drives LASH's layer demand on
   sparse irregular fabrics, Fig. 9). *)
let tie_break c dst = ((c * 0x9E3779B1) lxor (dst * 0x85EBCA77)) land max_int

let plain_minhop g =
  let n = Graph.num_nodes g in
  let ft = Ftable.create g ~algorithm:"lash" in
  let ws = Spf.workspace g in
  let result = ref (Ok ()) in
  Array.iter
    (fun dst ->
      match !result with
      | Error _ -> ()
      | Ok () ->
        let { Spf.dist; reached; _ } = Spf.compute_hops ws g ~dst in
        if reached < n then
          result := Error (Printf.sprintf "node unreachable toward %d" dst)
        else
          for u = 0 to n - 1 do
            if u <> dst then begin
              let best = ref (-1) in
              Array.iter
                (fun c ->
                  let v = (Graph.channel g c).Channel.dst in
                  if dist.(v) + 1 = dist.(u) && (!best < 0 || tie_break c dst < tie_break !best dst)
                  then best := c)
                (Graph.out_channels g u);
              if !best >= 0 then Ftable.set_next ft ~node:u ~dst ~channel:!best
            end
          done)
    (Graph.terminals g);
  match !result with
  | Error msg -> Error msg
  | Ok () -> Ok ft

let route ?(max_layers = 16) g =
  match plain_minhop g with
  | Error msg -> Error ("lash: " ^ msg)
  | Ok ft -> (
    (* placed by route class: every pair gets its class's layer *)
    match Ftable.to_classes ft with
    | Error msg -> Error ("lash: " ^ msg)
    | Ok cls -> (
      match Online.assign_store cls.Ftable.store ~max_layers with
      | Error msg -> Error ("lash: " ^ msg)
      | Ok outcome ->
        Ftable.set_class_layers ft cls outcome.Online.layer_of_path;
        Ftable.set_num_layers ft outcome.Online.layers_used;
        Ok ft))
