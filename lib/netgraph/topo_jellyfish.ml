let make ~switches ~ports ~net_ports ~rng =
  if switches < 2 then invalid_arg "Topo_jellyfish.make: switches < 2";
  if net_ports < 2 then invalid_arg "Topo_jellyfish.make: net_ports < 2";
  if net_ports > ports then invalid_arg "Topo_jellyfish.make: net_ports > ports";
  if net_ports >= switches then invalid_arg "Topo_jellyfish.make: net_ports >= switches";
  Builder.check_nodes ~what:"Topo_jellyfish.make"
    (Builder.size_product [ switches ] + Builder.size_product [ switches; ports - net_ports ]);
  (* Cables live in slots, numbered in the order they were laid; a
     removed cable leaves its slot dead. Every add takes a free port:
     phase 1 lays c cables, and the splices at most (switches * net_ports
     - 2c) / 2 of them adding two each, so switches * net_ports slots
     suffice. Switch s's cables are its first degree.(s) entries from
     s * net_ports in [peer] (the far end) and [slot_of]. *)
  let slots = switches * net_ports in
  let end_a = Array.make slots 0 and end_b = Array.make slots 0 in
  let live = Fenwick.create slots and dead = Array.make slots false in
  let laid = ref 0 in
  let peer = Array.make slots 0 and slot_of = Array.make slots 0 in
  let degree = Array.make switches 0 in
  let attach s p slot =
    let i = (s * net_ports) + degree.(s) in
    peer.(i) <- p;
    slot_of.(i) <- slot;
    degree.(s) <- degree.(s) + 1
  in
  let detach s p =
    let base = s * net_ports in
    let last = base + degree.(s) - 1 in
    let i = ref base in
    while peer.(!i) <> p do
      incr i
    done;
    let slot = slot_of.(!i) in
    peer.(!i) <- peer.(last);
    slot_of.(!i) <- slot_of.(last);
    degree.(s) <- degree.(s) - 1;
    slot
  in
  let add a b =
    let slot = !laid in
    incr laid;
    end_a.(slot) <- a;
    end_b.(slot) <- b;
    Fenwick.add live slot 1;
    attach a b slot;
    attach b a slot
  in
  let remove a b =
    let slot = detach a b in
    let (_ : int) = detach b a in
    Fenwick.add live slot (-1);
    dead.(slot) <- true
  in
  let free s = net_ports - degree.(s) in
  (* [skip_select t ~from ~excluded k]: the [k]-th unit (0-based) of the
     0/1 tree [t] at or after its [from]-th unit, not counting the
     positions in [excluded] (sorted ascending, each a unit at or after
     it). *)
  let skip_select t ~from ~excluded k =
    let skipped = ref 0 in
    let pos = ref (Fenwick.select t (from + k)) in
    Array.iter
      (fun e ->
        if e <= !pos then begin
          incr skipped;
          pos := Fenwick.select t (from + k + !skipped)
        end)
      excluded;
    !pos
  in
  (* Phase 1 (the paper's incremental construction): keep linking
     uniformly random non-adjacent pairs that both have free ports.
     The candidates are every pair a < b of the f switches with free
     ports (the members), less the linked ones, in lexicographic order;
     one draw picks the k-th. The row of member x holds the members
     above it, f - (its rank among members, 1-based), less above.(x), its
     linked members above it. So the rows up to the m-th member hold
     m*f - m(m+1)/2 minus the sum of [above] over them: one descent of
     the two trees [member] and [above_t] finds the k-th candidate's
     row. *)
  let member = Fenwick.create switches in
  let above_t = Fenwick.create switches in
  let above = Array.make switches 0 in
  let is_member = Array.make switches true in
  let f = ref switches and linked_members = ref 0 in
  for s = 0 to switches - 1 do
    Fenwick.add member s 1
  done;
  let leave x =
    is_member.(x) <- false;
    Fenwick.add member x (-1);
    decr f;
    Fenwick.add above_t x (-above.(x));
    linked_members := !linked_members - above.(x);
    above.(x) <- 0;
    for i = x * net_ports to (x * net_ports) + degree.(x) - 1 do
      let y = peer.(i) in
      if y < x && is_member.(y) then begin
        above.(y) <- above.(y) - 1;
        Fenwick.add above_t y (-1);
        decr linked_members
      end
    done
  in
  let rec fill () =
    let f = !f in
    let candidates = (f * (f - 1) / 2) - !linked_members in
    if candidates > 0 then begin
      let k = Rng.int rng candidates in
      let a = Fenwick.search member above_t (fun m l -> (m * f) - (m * (m + 1) / 2) - l <= k) in
      let m = Fenwick.prefix member a in
      let before = (m * f) - (m * (m + 1) / 2) - Fenwick.prefix above_t a in
      let excluded =
        Array.of_list
          (List.sort compare
             (List.filter
                (fun y -> y > a && is_member.(y))
                (List.init degree.(a) (fun i -> peer.((a * net_ports) + i)))))
      in
      let b = skip_select member ~from:(m + 1) ~excluded (k - before) in
      add a b;
      above.(a) <- above.(a) + 1;
      Fenwick.add above_t a 1;
      incr linked_members;
      if free a = 0 then leave a;
      if free b = 0 then leave b;
      fill ()
    end
  in
  fill ();
  (* Phase 2: a switch still holding >= 2 free ports splices itself into
     a random cable neither of whose ends it already touches. The usable
     cables are the live ones less those at u or at a neighbour of u, in
     the order they were laid. *)
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
            let touched = ref [] in
            let note w =
              for i = w * net_ports to (w * net_ports) + degree.(w) - 1 do
                touched := slot_of.(i) :: !touched
              done
            in
            note u;
            for i = u * net_ports to (u * net_ports) + degree.(u) - 1 do
              note peer.(i)
            done;
            let excluded = Array.of_list (List.sort_uniq compare !touched) in
            let usable = Fenwick.prefix live !laid - Array.length excluded in
            if usable > 0 then begin
              let slot = skip_select live ~from:0 ~excluded (Rng.int rng usable) in
              let x = end_a.(slot) and y = end_b.(slot) in
              remove x y;
              add u x;
              add u y;
              spliced := true
            end
          end)
        order;
      if !spliced then splice ()
  in
  splice ();
  let edges = ref [] in
  for slot = !laid - 1 downto 0 do
    if not dead.(slot) then edges := (end_a.(slot), end_b.(slot)) :: !edges
  done;
  let edges = Rewire.connect_components ~switches ~edges:!edges ~rng in
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
  Builder.build b
