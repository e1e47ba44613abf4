(* Per destination: BFS hop distances toward dst, then every node picks
   the min-hop channel with the fewest forwarding-table entries so far.
   The load counter is per LFT entry — NOT per end-to-end route — which
   is exactly OpenSM's port balancing and the reason MinHop's balance is
   only local: a table entry on a trunk carries far more traffic than one
   on a leaf link, but both count the same (the gap SSSP closes by
   weighting channels with actual route counts).

   Loads are read and bumped within one destination, but never on the
   same channel: node u reads and then bumps only its own out-channels,
   and no other node of the destination reads those. So every batch
   mode of the driver gives the same picks as reading the live loads,
   and the picks are a function of (frozen loads, destination) alone,
   independent of which domain routes which destination. *)

let route_destination g ws ~n (view : Batched.view) ~ft ~dst =
  let { Spf.dist; reached; _ } = Spf.compute_hops ws g ~dst in
  if reached < n then
    Error (Printf.sprintf "minhop: node unreachable toward %d" dst)
  else begin
    let load = view.reads in
    let error = ref None in
    let u = ref 0 in
    while !error = None && !u < n do
      let u0 = !u in
      if u0 <> dst then begin
        let best = ref (-1) in
        Array.iter
          (fun c ->
            let v = (Graph.channel g c).Channel.dst in
            if dist.(v) + 1 = dist.(u0) && (!best < 0 || load.(c) < load.(!best)) then best := c)
          (Graph.out_channels g u0);
        match !best with
        | -1 -> error := Some (Printf.sprintf "minhop: no min-hop channel at %d toward %d" u0 dst)
        | c ->
          Ftable.set_next ft ~node:u0 ~dst ~channel:c;
          view.add c 1
      end;
      incr u
    done;
    match !error with
    | Some msg -> Error msg
    | None -> Ok ()
  end

let route ?(batch = 1) ?(domains = 1) g =
  let n = Graph.num_nodes g in
  let m = Graph.num_channels g in
  let ft = Ftable.create g ~algorithm:"minhop" in
  let result =
    Batched.with_pool ~domains
      (fun _slot -> Spf.workspace g)
      (fun pool ->
        Batched.run ~cost:m ~pool ~batch ~state:(Array.make m 0) ~dsts:(Graph.terminals g)
          (fun ws view dst -> route_destination g ws ~n view ~ft ~dst))
  in
  match result with
  | Error _ as e -> e
  | Ok () -> Ok ft
