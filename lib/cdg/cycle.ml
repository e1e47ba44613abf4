type color =
  | White
  | Gray
  | Black

(* A frame walks the CSR row of [node] by slot index (no per-push
   successor array). Liveness is re-checked at consumption, so edges
   removed after the push are skipped. *)
type frame = {
  node : int;
  mutable sl : int; (* next slot to examine *)
  sl_hi : int;
}

type t = {
  cdg : Cdg.t;
  color : color array;
  mutable stack : frame list; (* top first *)
  stack_pos : int array; (* channel -> depth in stack, or -1 *)
  mutable depth : int;
  mutable next_root : int;
  injection : bool array; (* channel -> leaves a terminal for a switch *)
}

(* Roots skip injection channels (terminal -> switch). No cycle consists
   of them alone — each one's successor leaves a switch — so every cycle
   still has a root. A table's routes never enter an injection channel
   after their first hop, so a search rooted there would only visit
   switch channels out of channel-id order. Skipping them makes the
   search order a function of the switch-level CDG alone: a route-class
   store, which leaves the injection dependencies out, searches exactly
   as the per-pair store does (DESIGN.md §10). *)
let create cdg =
  let g = Cdg.graph cdg in
  let m = Graph.num_channels g in
  let injection =
    Array.map
      (fun (c : Channel.t) -> Graph.is_terminal g c.Channel.src && Graph.is_switch g c.Channel.dst)
      (Graph.channels g)
  in
  {
    cdg;
    color = Array.make m White;
    stack = [];
    stack_pos = Array.make m (-1);
    depth = 0;
    next_root = 0;
    injection;
  }

let push t node =
  t.color.(node) <- Gray;
  t.stack_pos.(node) <- t.depth;
  t.depth <- t.depth + 1;
  let lo, hi = Cdg.slot_range t.cdg node in
  t.stack <- { node; sl = lo; sl_hi = hi } :: t.stack

let pop t =
  match t.stack with
  | [] -> assert false
  | f :: rest ->
    t.color.(f.node) <- Black;
    t.stack_pos.(f.node) <- -1;
    t.depth <- t.depth - 1;
    t.stack <- rest

(* Cycle through the gray node [target]: the stack edges from [target]'s
   depth up to the top, plus the closing back edge (top, target). *)
let extract_cycle t target =
  let top_depth = t.depth - 1 in
  let start_depth = t.stack_pos.(target) in
  let len = top_depth - start_depth + 1 in
  let nodes = Array.make len 0 in
  List.iteri (fun i f -> if i < len then nodes.(len - 1 - i) <- f.node) t.stack;
  Array.init len (fun i -> if i = len - 1 then (nodes.(i), target) else (nodes.(i), nodes.(i + 1)))

let find_cycle t =
  let m = Array.length t.color in
  let result = ref None in
  let running = ref true in
  (* Examine the live successor [s]; [advance] moves past it. Does not
     advance on Gray: if the caller breaks the cycle elsewhere, the same
     back edge must be re-examined; if the caller kills this edge, the
     liveness check skips it. *)
  let visit s advance =
    match t.color.(s) with
    | Gray ->
      result := Some (extract_cycle t s);
      running := false
    | Black -> advance ()
    | White ->
      advance ();
      push t s
  in
  while !running do
    match t.stack with
    | [] ->
      if t.next_root >= m then running := false
      else if t.color.(t.next_root) = White && not t.injection.(t.next_root) then push t t.next_root
      else t.next_root <- t.next_root + 1
    | f :: _ ->
      if f.sl < f.sl_hi then begin
        let sl = f.sl in
        if not (Cdg.slot_live t.cdg sl) then f.sl <- f.sl + 1
        else visit (Cdg.slot_col t.cdg sl) (fun () -> f.sl <- f.sl + 1)
      end
      else pop t
  done;
  !result

let notify_removed t =
  (* Walk from the bottom; cut at the first dead stack edge. *)
  let frames = Array.of_list (List.rev t.stack) in
  let n = Array.length frames in
  let cut = ref n in
  for i = 1 to n - 1 do
    if !cut = n && not (Cdg.live t.cdg ~c1:frames.(i - 1).node ~c2:frames.(i).node) then cut := i
  done;
  if !cut < n then begin
    (* Frames cut..n-1 revert to white (unexplored). *)
    for i = !cut to n - 1 do
      t.color.(frames.(i).node) <- White;
      t.stack_pos.(frames.(i).node) <- -1
    done;
    t.depth <- !cut;
    let rec keep i acc = if i >= !cut then acc else keep (i + 1) (frames.(i) :: acc) in
    t.stack <- keep 0 []
  end
