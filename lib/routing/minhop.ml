(* Per destination: BFS hop distances toward dst, then every node picks
   the min-hop channel with the fewest forwarding-table entries so far.
   The load counter is per LFT entry — NOT per end-to-end route — which
   is exactly OpenSM's port balancing and the reason MinHop's balance is
   only local: a table entry on a trunk carries far more traffic than one
   on a leaf link, but both count the same (the gap SSSP closes by
   weighting channels with actual route counts).

   Unlike SSSP and Up*/Down*, MinHop reads the balancing state {e while}
   it updates it within a destination (node u's pick bumps a load that
   node u+1 reads), so the batched pipeline layers a per-destination
   local overlay on top of the per-batch snapshot: effective load =
   snapshot + this destination's own increments. That keeps the picks a
   function of (snapshot, destination) alone, independent of which
   domain routes which destination. *)

let route_destination g ws ~stamp ~n ~get_load ~bump ~ft ~dst =
  let { Spf.dist; reached; _ } = Spf.compute_hops ws g ~stamp ~dst in
  if reached < n then
    Error (Printf.sprintf "minhop: node unreachable toward %d" dst)
  else begin
    let error = ref None in
    let u = ref 0 in
    while !error = None && !u < n do
      let u0 = !u in
      if u0 <> dst then begin
        let best = ref (-1) in
        Array.iter
          (fun c ->
            let v = (Graph.channel g c).Channel.dst in
            if dist.(v) + 1 = dist.(u0) && (!best < 0 || get_load c < get_load !best) then best := c)
          (Graph.out_channels g u0);
        match !best with
        | -1 -> error := Some (Printf.sprintf "minhop: no min-hop channel at %d toward %d" u0 dst)
        | c ->
          Ftable.set_next ft ~node:u0 ~dst ~channel:c;
          bump c
      end;
      incr u
    done;
    match !error with
    | Some msg -> Error msg
    | None -> Ok ()
  end

type scratch = {
  ws : Spf.workspace;
  local : int array; (* this destination's own increments *)
  local_touched : int array;
  mutable num_local : int;
  delta : int array; (* batch increments awaiting merge *)
  delta_touched : int array;
  mutable num_delta : int;
}

let route ?(batch = 1) ?(domains = 1) g =
  let n = Graph.num_nodes g in
  let m = Graph.num_channels g in
  let ft = Ftable.create g ~algorithm:"minhop" in
  let load = Array.make m 0 in
  let dsts = Graph.terminals g in
  (* Hop distances do not depend on the load state, so one stamp covers
     the whole run: the incremental kernel reuses a switch tree across
     every destination on that switch. *)
  let stamp = Spf.fresh_stamp () in
  let result =
    if batch <= 1 && domains <= 1 then begin
      let ws = Spf.workspace g in
      let nt = Array.length dsts in
      let rec go i =
        if i >= nt then Ok ()
        else
          match
            route_destination g ws ~stamp ~n
              ~get_load:(fun c -> load.(c))
              ~bump:(fun c -> load.(c) <- load.(c) + 1)
              ~ft ~dst:dsts.(i)
          with
          | Ok () -> go (i + 1)
          | Error _ as e -> e
      in
      go 0
    end
    else begin
      let snapshot = Array.make m 0 in
      Parallel.Pool.with_pool ~domains
        (fun _slot ->
          {
            ws = Spf.workspace g;
            local = Array.make m 0;
            local_touched = Array.make m 0;
            num_local = 0;
            delta = Array.make m 0;
            delta_touched = Array.make m 0;
            num_delta = 0;
          })
        (fun pool ->
          Batched.run ~cost:m ~pool ~batch ~dsts
            ~freeze:(fun () -> Array.blit load 0 snapshot 0 m)
            ~dest:(fun sc dst ->
              let r =
                route_destination g sc.ws ~stamp ~n
                  ~get_load:(fun c -> snapshot.(c) + sc.local.(c))
                  ~bump:(fun c ->
                    if sc.local.(c) = 0 then begin
                      sc.local_touched.(sc.num_local) <- c;
                      sc.num_local <- sc.num_local + 1
                    end;
                    sc.local.(c) <- sc.local.(c) + 1;
                    if sc.delta.(c) = 0 then begin
                      sc.delta_touched.(sc.num_delta) <- c;
                      sc.num_delta <- sc.num_delta + 1
                    end;
                    sc.delta.(c) <- sc.delta.(c) + 1)
                  ~ft ~dst
              in
              for i = 0 to sc.num_local - 1 do
                sc.local.(sc.local_touched.(i)) <- 0
              done;
              sc.num_local <- 0;
              r)
            ~merge:(fun sc ->
              for i = 0 to sc.num_delta - 1 do
                let c = sc.delta_touched.(i) in
                load.(c) <- load.(c) + sc.delta.(c);
                sc.delta.(c) <- 0
              done;
              sc.num_delta <- 0))
    end
  in
  match result with
  | Error _ as e -> e
  | Ok () -> Ok ft
