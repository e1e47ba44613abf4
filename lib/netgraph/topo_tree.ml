let rec pow base e = if e = 0 then 1 else base * pow base (e - 1)

(* Switch <w, l>: l in 0..n-1 (0 = top), w in {0..k-1}^(n-1) encoded as a
   mixed-radix integer with w_0 most significant. <w, l> and <w', l+1> are
   adjacent iff w and w' agree on every digit except position l. *)
let make ~k ~n ?endpoints () =
  if k < 2 then invalid_arg "Topo_tree.make: k < 2";
  if n < 1 then invalid_arg "Topo_tree.make: n < 1";
  let switches = Builder.size_product [ n; Builder.size_power k (n - 1) ] in
  let endpoints = match endpoints with Some e -> e | None -> Builder.size_power k n in
  if endpoints < 0 then invalid_arg "Topo_tree.make: endpoints < 0";
  Builder.check_nodes ~what:"Topo_tree.make" (switches + min endpoints (Builder.max_nodes + 1));
  let per_level = pow k (n - 1) in
  let b = Builder.create () in
  let sw = Array.make (n * per_level) (-1) in
  let id level w = (level * per_level) + w in
  for level = 0 to n - 1 do
    for w = 0 to per_level - 1 do
      sw.(id level w) <- Builder.add_switch b ~name:(Printf.sprintf "s%d_%d" level w)
    done
  done;
  (* Digit l of w (w_0 most significant among n-1 digits). *)
  let digit_weight l = pow k (n - 2 - l) in
  for level = 0 to n - 2 do
    for w = 0 to per_level - 1 do
      let weight = digit_weight level in
      let d = w / weight mod k in
      let base = w - (d * weight) in
      for x = 0 to k - 1 do
        let w' = base + (x * weight) in
        let (_ : int * int) = Builder.add_link b sw.(id level w) sw.(id (level + 1) w') in
        ()
      done
    done
  done;
  for i = 0 to endpoints - 1 do
    let leaf = i mod per_level in
    let (_ : int) = Builder.add_terminal b ~name:(Printf.sprintf "t%d" i) ~switch:sw.(id (n - 1) leaf) in
    ()
  done;
  Builder.build b
