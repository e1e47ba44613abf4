let num_switches ~b ~n =
  if n < 1 then invalid_arg "Topo_kautz.num_switches: n < 1";
  Builder.size_product [ b + 1; Builder.size_power b (n - 1) ]

(* Vertices are encoded as integers: the word s_1..s_n maps to an index by
   s_1 in [0, b+1) then each subsequent digit as an offset in [0, b)
   relative to the previous symbol (skipping equality), giving a dense
   encoding of exactly (b+1)*b^(n-1) words. *)
let make ~b ~n ~endpoints =
  if b < 2 then invalid_arg "Topo_kautz.make: b < 2";
  if n < 1 then invalid_arg "Topo_kautz.make: n < 1";
  if endpoints < 0 then invalid_arg "Topo_kautz.make: endpoints < 0";
  let count = num_switches ~b ~n in
  Builder.check_nodes ~what:"Topo_kautz.make" (count + min endpoints (Builder.max_nodes + 1));
  (* Enumerate all words explicitly; map word -> vertex index. *)
  let words = Array.make count [||] in
  let index = Hashtbl.create (2 * count) in
  let cursor = ref 0 in
  let rec enumerate prefix len =
    if len = n then begin
      let w = Array.of_list (List.rev prefix) in
      words.(!cursor) <- w;
      Hashtbl.replace index w !cursor;
      incr cursor
    end
    else
      for s = 0 to b do
        match prefix with
        | last :: _ when last = s -> ()
        | _ -> enumerate (s :: prefix) (len + 1)
      done
  in
  enumerate [] 0;
  assert (!cursor = count);
  let bld = Builder.create () in
  let sw =
    Array.init count (fun i ->
        let name =
          "k" ^ String.concat "" (Array.to_list (Array.map string_of_int words.(i)))
        in
        Builder.add_switch bld ~name)
  in
  (* Arc u -> v iff word(v) = shift(word(u)) + fresh last symbol. *)
  let successors u =
    let w = words.(u) in
    let succ = ref [] in
    for x = 0 to b do
      if x <> w.(n - 1) then begin
        let w' = Array.init n (fun i -> if i < n - 1 then w.(i + 1) else x) in
        succ := Hashtbl.find index w' :: !succ
      end
    done;
    !succ
  in
  let arc = Hashtbl.create (4 * count * b) in
  for u = 0 to count - 1 do
    List.iter (fun v -> Hashtbl.replace arc (u, v) ()) (successors u)
  done;
  for u = 0 to count - 1 do
    List.iter
      (fun v ->
        if u <> v then
          (* One cable per unordered pair: add on the (u < v) orientation,
             or on the arc's own orientation when the reverse arc is absent. *)
          let mutual = Hashtbl.mem arc (v, u) in
          if (mutual && u < v) || not mutual then begin
            let (_ : int * int) = Builder.add_link bld sw.(u) sw.(v) in
            ()
          end)
      (successors u)
  done;
  for t = 0 to endpoints - 1 do
    let (_ : int) = Builder.add_terminal bld ~name:(Printf.sprintf "t%d" t) ~switch:sw.(t mod count) in
    ()
  done;
  Builder.build bld
