(* CSR representation (DESIGN.md §10), built once by [of_store] and
   never changed after.

   Slot range [row.(c1), row.(c1+1)) lists the successors of c1 in [col],
   each with its inducing-route weight in [cnt] and an inducing-pair slice
   [poff.(sl), poff.(sl+1)) into [pbuf]. [cnt] of a slot is the summed
   {!Route_store.weight} of its pair memberships (their number, in a
   per-pair store); weights are at least 1, so every slot is a live edge. *)

type t = {
  graph : Graph.t;
  row : int array; (* length m+1 *)
  col : int array; (* length nslots *)
  cnt : int array; (* per slot: weight of the inducing routes *)
  poff : int array; (* length nslots+1 *)
  pbuf : int array; (* inducing pair ids *)
  num_paths : int;
}

let graph t = t.graph

let find_slot t c1 c2 =
  let hi = t.row.(c1 + 1) in
  let rec go i = if i >= hi then -1 else if t.col.(i) = c2 then i else go (i + 1) in
  go t.row.(c1)

let live t ~c1 ~c2 = find_slot t c1 c2 >= 0

let edge_pairs t ~c1 ~c2 =
  let sl = find_slot t c1 c2 in
  if sl < 0 then [] else List.init (t.poff.(sl + 1) - t.poff.(sl)) (fun i -> t.pbuf.(t.poff.(sl) + i))

let slot_range t c = (t.row.(c), t.row.(c + 1))

let slot_col t sl = t.col.(sl)

let slot_count t sl = t.cnt.(sl)

let iter_slot_pairs t sl f =
  for i = t.poff.(sl) to t.poff.(sl + 1) - 1 do
    f t.pbuf.(i)
  done

let num_edges t = Array.length t.col

let num_paths t = t.num_paths

let iter_edges t f =
  let m = Array.length t.row - 1 in
  for c1 = 0 to m - 1 do
    for sl = t.row.(c1) to t.row.(c1 + 1) - 1 do
      f c1 t.col.(sl) t.cnt.(sl)
    done
  done

(* One-pass CSR construction from a route store: counting sort of all
   dependency occurrences by head channel, then per-row successor
   dedup via stamps. O(total dependencies + channels). Both sweeps read
   the arena directly — the dependencies of a slice are the consecutive
   [buf.(i), buf.(i+1)] — with no call per dependency. A slot's count
   sums the weights of its inducing slices; its membership lists each
   slice once. *)
let of_store ?filter ?pairs store =
  let g = Route_store.graph store in
  let m = Graph.num_channels g in
  let buf = Route_store.buffer store
  and off = Route_store.offsets store
  and len = Route_store.lengths store
  and weight = Route_store.weights store in
  let keep pr = match filter with None -> true | Some f -> f pr in
  (* [pairs] narrows the sweep to an explicit id list (each present in the
     store, no duplicates) — the streaming handoff of the SCC engine,
     which knows exactly which pairs it moved into the next layer and
     skips the full-capacity scan. *)
  let sweep f =
    match pairs with
    | None ->
      for pr = 0 to Array.length len - 1 do
        if len.(pr) >= 0 && keep pr then f pr
      done
    | Some ids ->
      Array.iter
        (fun pr ->
          if keep pr then begin
            (* an absent id raises, as reading its slice would *)
            ignore (Route_store.length store ~pair:pr);
            f pr
          end)
        ids
  in
  (* occurrence counts per head channel, shifted by one for the prefix sum *)
  let occ = Array.make (m + 1) 0 in
  let npaths = ref 0 in
  sweep (fun pr ->
      incr npaths;
      for i = off.(pr) to off.(pr) + len.(pr) - 2 do
        let a = buf.(i) in
        occ.(a + 1) <- occ.(a + 1) + 1
      done);
  for c = 1 to m do
    occ.(c) <- occ.(c) + occ.(c - 1)
  done;
  let total = occ.(m) in
  let dep_col = Array.make total 0 in
  let dep_pair = Array.make total 0 in
  let cursor = Array.copy occ in
  sweep (fun pr ->
      for i = off.(pr) to off.(pr) + len.(pr) - 2 do
        let a = buf.(i) in
        let j = cursor.(a) in
        dep_col.(j) <- buf.(i + 1);
        dep_pair.(j) <- pr;
        cursor.(a) <- j + 1
      done);
  (* distinct successors per row *)
  let stamp = Array.make m (-1) in
  let nslots = ref 0 in
  for c = 0 to m - 1 do
    for k = occ.(c) to occ.(c + 1) - 1 do
      let s = dep_col.(k) in
      if stamp.(s) <> c then begin
        stamp.(s) <- c;
        incr nslots
      end
    done
  done;
  let nslots = !nslots in
  let row = Array.make (m + 1) 0 in
  let col = Array.make nslots 0 in
  let cnt = Array.make nslots 0 in
  let poff = Array.make (nslots + 1) 0 in
  let pbuf = Array.make total 0 in
  let slot_of = Array.make m 0 in
  let pcur = Array.make nslots 0 in
  Array.fill stamp 0 m (-1);
  let slot = ref 0 and pfill = ref 0 in
  for c = 0 to m - 1 do
    row.(c) <- !slot;
    let row_start = !slot in
    for k = occ.(c) to occ.(c + 1) - 1 do
      let s = dep_col.(k) in
      if stamp.(s) <> c then begin
        stamp.(s) <- c;
        slot_of.(s) <- !slot;
        col.(!slot) <- s;
        incr slot
      end;
      (* members per slot for now; weighted below *)
      let sl = slot_of.(s) in
      cnt.(sl) <- cnt.(sl) + 1
    done;
    for sl = row_start to !slot - 1 do
      poff.(sl) <- !pfill;
      pcur.(sl) <- !pfill;
      pfill := !pfill + cnt.(sl)
    done;
    for k = occ.(c) to occ.(c + 1) - 1 do
      let sl = slot_of.(dep_col.(k)) in
      pbuf.(pcur.(sl)) <- dep_pair.(k);
      pcur.(sl) <- pcur.(sl) + 1
    done
  done;
  row.(m) <- !slot;
  poff.(nslots) <- !pfill;
  (match weight with
  | None -> ()
  | Some w ->
    for sl = 0 to nslots - 1 do
      let sum = ref 0 in
      for i = poff.(sl) to poff.(sl + 1) - 1 do
        sum := !sum + w.(pbuf.(i))
      done;
      cnt.(sl) <- !sum
    done);
  { graph = g; row; col; cnt; poff; pbuf; num_paths = !npaths }
