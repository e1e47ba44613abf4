(* Iterative Tarjan over the edges of a CDG. Frames walk the CSR rows by
   slot index (same cursor scheme as {!Cycle}), so a CDG condenses on
   pure array scans. *)

type t = {
  comp_of : int array;
  num_comps : int;
  nontrivial : int array array;
}

type frame = {
  node : int;
  mutable sl : int; (* next slot to examine *)
  sl_hi : int;
}

let of_cdg cdg =
  let m = Graph.num_channels (Cdg.graph cdg) in
  let index = Array.make m (-1) in
  let lowlink = Array.make m 0 in
  let on_stack = Array.make m false in
  let self_loop = Array.make m false in
  let comp_of = Array.make m (-1) in
  let next_index = ref 0 in
  let num_comps = ref 0 in
  let tstack = ref [] in
  let dfs = ref [] in
  let push node =
    index.(node) <- !next_index;
    lowlink.(node) <- !next_index;
    incr next_index;
    tstack := node :: !tstack;
    on_stack.(node) <- true;
    let lo, hi = Cdg.slot_range cdg node in
    dfs := { node; sl = lo; sl_hi = hi } :: !dfs
  in
  let close_root node =
    let c = !num_comps in
    incr num_comps;
    let closing = ref true in
    while !closing do
      match !tstack with
      | [] -> assert false
      | v :: rest ->
        tstack := rest;
        on_stack.(v) <- false;
        comp_of.(v) <- c;
        if v = node then closing := false
    done
  in
  for root = 0 to m - 1 do
    if index.(root) = -1 then begin
      push root;
      while !dfs <> [] do
        let f = List.hd !dfs in
        if f.sl < f.sl_hi then begin
          let s = Cdg.slot_col cdg f.sl in
          f.sl <- f.sl + 1;
          if s = f.node then self_loop.(s) <- true
          else if index.(s) = -1 then push s
          else if on_stack.(s) then lowlink.(f.node) <- min lowlink.(f.node) index.(s)
        end
        else begin
          dfs := List.tl !dfs;
          if lowlink.(f.node) = index.(f.node) then close_root f.node;
          match !dfs with
          | parent :: _ -> lowlink.(parent.node) <- min lowlink.(parent.node) lowlink.(f.node)
          | [] -> ()
        end
      done
    end
  done;
  let sizes = Array.make !num_comps 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) comp_of;
  let members = Array.map (fun n -> Array.make n 0) sizes in
  let fill = Array.make !num_comps 0 in
  (* Channels are placed in ascending order, so every member array comes
     out sorted, and the first member of a component is its smallest —
     collecting components at that moment orders them by smallest member. *)
  let order = ref [] in
  for v = 0 to m - 1 do
    let c = comp_of.(v) in
    if fill.(c) = 0 && (sizes.(c) >= 2 || self_loop.(v)) then order := c :: !order;
    members.(c).(fill.(c)) <- v;
    fill.(c) <- fill.(c) + 1
  done;
  let nontrivial = Array.of_list (List.rev_map (fun c -> members.(c)) !order) in
  { comp_of; num_comps = !num_comps; nontrivial }
