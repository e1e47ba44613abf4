(* Products of a[lo..hi], saturated at Builder.max_nodes + 1. *)
let prod a lo hi = Builder.size_product (Array.to_list (Array.sub a lo (max 0 (hi - lo + 1))))

let num_leaves ~ms = prod ms 0 (Array.length ms - 1)

let level_count ~ms ~ws i =
  let h = Array.length ms in
  (* A_i = m_(i+1)*...*m_h  (indices shifted: ms.(j) is m_(j+1)) *)
  prod ms i (h - 1) * prod ws 0 (i - 1)

(* Level-i nodes are addressed by (a, b): a in [0, A_i) identifies the
   subtree chain (digit a_(i+1) least significant, radix m_(i+1)), b in
   [0, B_i) the replica index (digit b_1 least significant, radix w_1).
   The level-(i+1) parents of (a, b) are (a / m_(i+1), b + B_i * c) for
   c in [0, w_(i+1)); see DESIGN.md for the derivation. *)
let make ~ms ~ws ~endpoints =
  let h = Array.length ms in
  if h = 0 then invalid_arg "Topo_xgft.make: height 0";
  if Array.length ws <> h then invalid_arg "Topo_xgft.make: ms/ws length mismatch";
  Array.iter (fun m -> if m < 1 then invalid_arg "Topo_xgft.make: m < 1") ms;
  Array.iter (fun w -> if w < 1 then invalid_arg "Topo_xgft.make: w < 1") ws;
  if endpoints < 0 then invalid_arg "Topo_xgft.make: endpoints < 0";
  let switches = List.fold_left ( + ) 0 (List.init (h + 1) (level_count ~ms ~ws)) in
  Builder.check_nodes ~what:"Topo_xgft.make" (switches + min endpoints (Builder.max_nodes + 1));
  let b = Builder.create () in
  let levels =
    Array.init (h + 1) (fun i ->
        let count = level_count ~ms ~ws i in
        Array.init count (fun j -> Builder.add_switch b ~name:(Printf.sprintf "s%d_%d" i j)))
  in
  for i = 0 to h - 1 do
    let count_i = level_count ~ms ~ws i in
    let b_i = prod ws 0 (i - 1) in
    for node = 0 to count_i - 1 do
      let a = node / b_i and bb = node mod b_i in
      for c = 0 to ws.(i) - 1 do
        let parent_a = a / ms.(i) in
        let parent_b = bb + (b_i * c) in
        let parent = (parent_a * (b_i * ws.(i))) + parent_b in
        let (_ : int * int) = Builder.add_link b levels.(i).(node) levels.(i + 1).(parent) in
        ()
      done
    done
  done;
  let leaves = level_count ~ms ~ws 0 in
  for t = 0 to endpoints - 1 do
    let (_ : int) = Builder.add_terminal b ~name:(Printf.sprintf "t%d" t) ~switch:levels.(0).(t mod leaves) in
    ()
  done;
  Builder.build b
