type path = int array

type generator = {
  num_nodes : int;
  paths : path array;
}

let edges_of_selection gen indices =
  let edges = Hashtbl.create 64 in
  List.iter
    (fun i ->
      let p = gen.paths.(i) in
      for j = 0 to Array.length p - 2 do
        Hashtbl.replace edges (p.(j), p.(j + 1)) ()
      done)
    indices;
  edges

let acyclic_edges num_nodes edges =
  let adj = Array.make num_nodes [] in
  let indeg = Array.make num_nodes 0 in
  Hashtbl.iter
    (fun (a, b) () ->
      adj.(a) <- b :: adj.(a);
      indeg.(b) <- indeg.(b) + 1)
    edges;
  let queue = Queue.create () in
  for v = 0 to num_nodes - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    incr seen;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      adj.(v)
  done;
  !seen = num_nodes

let induces_acyclic gen indices = acyclic_edges gen.num_nodes (edges_of_selection gen indices)

(* Backtracking with first-fit symmetry breaking: path i may only open
   class (max used so far) + 1. Acyclicity is re-checked on the touched
   class only. *)
let find_cover gen ~k =
  let n = Array.length gen.paths in
  if k > n || k < 1 then None
  else begin
    let assignment = Array.make n (-1) in
    let classes = Array.make k [] in
    let rec place i used =
      if i = n then if used = k then Some (Array.copy assignment) else None
      else begin
        let limit = min (used + 1) k in
        (* Prune: remaining paths must be able to open the missing
           classes. *)
        if k - used > n - i then None
        else begin
          let rec try_class c =
            if c >= limit then None
            else begin
              classes.(c) <- i :: classes.(c);
              let ok = induces_acyclic gen classes.(c) in
              if ok then begin
                assignment.(i) <- c;
                match place (i + 1) (max used (c + 1)) with
                | Some _ as witness -> witness
                | None ->
                  assignment.(i) <- -1;
                  classes.(c) <- List.tl classes.(c);
                  try_class (c + 1)
              end
              else begin
                classes.(c) <- List.tl classes.(c);
                try_class (c + 1)
              end
            end
          in
          try_class 0
        end
      end
    in
    place 0 0
  end

let min_cover_exact ?max_k gen =
  let n = Array.length gen.paths in
  let max_k = Option.value ~default:n max_k in
  let rec go k =
    if k > max_k || k > n then None
    else
      match find_cover gen ~k with
      | Some _ -> Some k
      | None -> go (k + 1)
  in
  if n = 0 then Some 0 else go 1

let fig3_example =
  (* a=0 b=1 c=2 d=3 *)
  { num_nodes = 4; paths = [| [| 1; 2 |]; [| 0; 1; 2 |]; [| 2; 3; 0; 1 |] |] }
