(* Iterative DFS with one frame per gray channel: [fnode.(d)] is the
   channel at depth [d], [fcur.(d)] the next slot of its CSR row to
   examine, and [depth.(c)] the depth of a gray channel. Reaching a gray
   channel closes the cycle of the stack frames from its depth up. *)

let white = 0

let gray = 1

let black = 2

(* Roots skip injection channels (terminal -> switch). No cycle consists
   of them alone — each one's successor leaves a switch — so every cycle
   still has a root. A table's routes never enter an injection channel
   after their first hop, so a search rooted there would only visit
   switch channels out of channel-id order. Skipping them makes the
   search order a function of the switch-level CDG alone: a route-class
   store, which leaves the injection dependencies out, searches exactly
   as the per-pair store does (DESIGN.md §10). *)
let injection g c =
  let ch = Graph.channel g c in
  Graph.is_terminal g ch.Channel.src && Graph.is_switch g ch.Channel.dst

let find cdg =
  let g = Cdg.graph cdg in
  let m = Graph.num_channels g in
  let color = Array.make m white in
  let depth = Array.make m 0 in
  let fnode = Array.make m 0 and fcur = Array.make m 0 in
  let sp = ref 0 in
  let push c =
    color.(c) <- gray;
    depth.(c) <- !sp;
    fnode.(!sp) <- c;
    fcur.(!sp) <- fst (Cdg.slot_range cdg c);
    incr sp
  in
  let exception Found of (int * int) array in
  try
    for root = 0 to m - 1 do
      if color.(root) = white && not (injection g root) then begin
        push root;
        while !sp > 0 do
          let top = !sp - 1 in
          let c = fnode.(top) in
          if fcur.(top) >= snd (Cdg.slot_range cdg c) then begin
            color.(c) <- black;
            decr sp
          end
          else begin
            let s = Cdg.slot_col cdg fcur.(top) in
            fcur.(top) <- fcur.(top) + 1;
            if color.(s) = gray then begin
              let start = depth.(s) in
              raise
                (Found
                   (Array.init (top - start + 1) (fun i ->
                        let d = start + i in
                        (fnode.(d), if d = top then s else fnode.(d + 1)))))
            end
            else if color.(s) = white then push s
          end
        done
      end
    done;
    None
  with Found cycle -> Some cycle
