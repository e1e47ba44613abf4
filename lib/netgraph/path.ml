type t = int array

let source g p =
  if Array.length p = 0 then invalid_arg "Path.source: empty path";
  (Graph.channel g p.(0)).Channel.src

let target g p =
  if Array.length p = 0 then invalid_arg "Path.target: empty path";
  (Graph.channel g p.(Array.length p - 1)).Channel.dst

let length = Array.length

let node_sequence g p =
  let n = Array.length p in
  if n = 0 then [||]
  else
    Array.init (n + 1) (fun i ->
        if i = 0 then (Graph.channel g p.(0)).Channel.src else (Graph.channel g p.(i - 1)).Channel.dst)

let is_consistent g p =
  let n = Array.length p in
  let rec go i =
    if i >= n - 1 then true
    else
      (Graph.channel g p.(i)).Channel.dst = (Graph.channel g p.(i + 1)).Channel.src && go (i + 1)
  in
  go 0

let is_simple g p =
  is_consistent g p
  &&
  let seq = node_sequence g p in
  let seen = Hashtbl.create (Array.length seq) in
  Array.for_all
    (fun v ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.add seen v ();
        true
      end)
    seq

let dependencies p =
  let n = Array.length p in
  let rec go i acc = if i >= n - 1 then List.rev acc else go (i + 1) ((p.(i), p.(i + 1)) :: acc) in
  go 0 []

