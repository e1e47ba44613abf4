type t = int array

let length = Array.length

let node_sequence g p =
  let n = Array.length p in
  if n = 0 then [||]
  else
    Array.init (n + 1) (fun i ->
        if i = 0 then (Graph.channel g p.(0)).Channel.src else (Graph.channel g p.(i - 1)).Channel.dst)
