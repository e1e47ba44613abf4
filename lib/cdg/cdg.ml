(* CSR base + overlay representation (DESIGN.md §10).

   The base is a compressed-sparse-row adjacency over channels: slot range
   [row.(c1), row.(c1+1)) lists the successors of c1 in [col], each with a
   live inducing-route count in [cnt] and an inducing-pair slice
   [poff.(sl), poff.(sl+1)) into [pbuf]. Removing a pair tombstones its
   [pbuf] entry (-1); pairs added to an existing base edge after the build
   go to the per-slot [extra] list. Edges absent from the base live in the
   [over] overlay (a nested hashtable) until [compact] folds everything
   back into a fresh base. The invariant throughout: [cnt] / [o_count] of
   an edge equals the summed {!Route_store.weight} of its live pair
   memberships (their number, in a per-pair store). *)

type over_edge = {
  mutable o_count : int;
  mutable o_pairs : int list;
}

type t = {
  graph : Graph.t;
  mutable row : int array; (* length m+1 *)
  mutable col : int array; (* length nslots *)
  mutable cnt : int array; (* per slot: weight of the live inducing routes; 0 = dead edge *)
  mutable poff : int array; (* length nslots+1 *)
  mutable pbuf : int array; (* inducing pair ids; -1 = tombstone *)
  mutable extra : int list array; (* per slot: pairs added after the build *)
  over : (int, (int, over_edge) Hashtbl.t) Hashtbl.t; (* c1 -> c2 -> edge *)
  mutable over_edges : int;
  mutable num_edges : int;
  mutable num_paths : int;
}

let create graph =
  let m = Graph.num_channels graph in
  {
    graph;
    row = Array.make (m + 1) 0;
    col = [||];
    cnt = [||];
    poff = [| 0 |];
    pbuf = [||];
    extra = [||];
    over = Hashtbl.create 16;
    over_edges = 0;
    num_edges = 0;
    num_paths = 0;
  }

let graph t = t.graph

let find_slot t c1 c2 =
  let hi = t.row.(c1 + 1) in
  let rec go i = if i >= hi then -1 else if t.col.(i) = c2 then i else go (i + 1) in
  go t.row.(c1)

let find_over t c1 c2 =
  match Hashtbl.find_opt t.over c1 with
  | None -> None
  | Some tbl -> Hashtbl.find_opt tbl c2

(* Build a fresh CSR base from the live edges of [t] (base + overlay) and
   clear the overlay. Counting pass then filling pass, both in row order. *)
let compact t =
  let m = Array.length t.row - 1 in
  let nslots = ref 0 and npairs = ref 0 in
  for sl = 0 to Array.length t.col - 1 do
    if t.cnt.(sl) > 0 then begin
      incr nslots;
      for i = t.poff.(sl) to t.poff.(sl + 1) - 1 do
        if t.pbuf.(i) >= 0 then incr npairs
      done;
      npairs := !npairs + List.length t.extra.(sl)
    end
  done;
  Hashtbl.iter
    (fun _ tbl ->
      Hashtbl.iter
        (fun _ e ->
          incr nslots;
          npairs := !npairs + List.length e.o_pairs)
        tbl)
    t.over;
  let row = Array.make (m + 1) 0 in
  let col = Array.make !nslots 0 in
  let cnt = Array.make !nslots 0 in
  let poff = Array.make (!nslots + 1) 0 in
  let pbuf = Array.make !npairs 0 in
  let s = ref 0 and p = ref 0 in
  for c = 0 to m - 1 do
    row.(c) <- !s;
    for sl = t.row.(c) to t.row.(c + 1) - 1 do
      if t.cnt.(sl) > 0 then begin
        col.(!s) <- t.col.(sl);
        cnt.(!s) <- t.cnt.(sl);
        poff.(!s) <- !p;
        for i = t.poff.(sl) to t.poff.(sl + 1) - 1 do
          if t.pbuf.(i) >= 0 then begin
            pbuf.(!p) <- t.pbuf.(i);
            incr p
          end
        done;
        List.iter
          (fun pr ->
            pbuf.(!p) <- pr;
            incr p)
          t.extra.(sl);
        incr s
      end
    done;
    match Hashtbl.find_opt t.over c with
    | None -> ()
    | Some tbl ->
      Hashtbl.iter
        (fun c2 e ->
          col.(!s) <- c2;
          cnt.(!s) <- e.o_count;
          poff.(!s) <- !p;
          List.iter
            (fun pr ->
              pbuf.(!p) <- pr;
              incr p)
            e.o_pairs;
          incr s)
        tbl
  done;
  row.(m) <- !s;
  poff.(!nslots) <- !p;
  t.row <- row;
  t.col <- col;
  t.cnt <- cnt;
  t.poff <- poff;
  t.pbuf <- pbuf;
  t.extra <- Array.make !nslots [];
  Hashtbl.reset t.over;
  t.over_edges <- 0

(* Fold the overlay into the base once it outgrows it: keeps long-lived
   CDGs under add/remove churn (the fabric manager's repair loop) on the
   scan-friendly CSR path, with geometrically amortized rebuild cost. *)
let maybe_compact t = if t.over_edges > 256 && t.over_edges > Array.length t.col then compact t

let add_edge t c1 c2 pair w =
  let sl = find_slot t c1 c2 in
  if sl >= 0 then begin
    if t.cnt.(sl) = 0 then t.num_edges <- t.num_edges + 1;
    t.cnt.(sl) <- t.cnt.(sl) + w;
    t.extra.(sl) <- pair :: t.extra.(sl)
  end
  else begin
    let tbl =
      match Hashtbl.find_opt t.over c1 with
      | Some tbl -> tbl
      | None ->
        let tbl = Hashtbl.create 4 in
        Hashtbl.replace t.over c1 tbl;
        tbl
    in
    match Hashtbl.find_opt tbl c2 with
    | Some e ->
      e.o_count <- e.o_count + w;
      e.o_pairs <- pair :: e.o_pairs
    | None ->
      Hashtbl.replace tbl c2 { o_count = w; o_pairs = [ pair ] };
      t.over_edges <- t.over_edges + 1;
      t.num_edges <- t.num_edges + 1
  end

(* Remove one occurrence of [x]; None if absent. *)
let rec drop_one x = function
  | [] -> None
  | y :: rest when y = x -> Some rest
  | y :: rest -> ( match drop_one x rest with None -> None | Some r -> Some (y :: r))

let not_present () = invalid_arg "Cdg.remove_path: edge not present"

let remove_edge t c1 c2 pair w =
  let sl = find_slot t c1 c2 in
  if sl >= 0 && t.cnt.(sl) > 0 then begin
    (match drop_one pair t.extra.(sl) with
    | Some rest -> t.extra.(sl) <- rest
    | None ->
      let hi = t.poff.(sl + 1) in
      let rec tombstone i =
        if i >= hi then invalid_arg "Cdg.remove_path: pair not on edge"
        else if t.pbuf.(i) = pair then t.pbuf.(i) <- -1
        else tombstone (i + 1)
      in
      tombstone t.poff.(sl));
    t.cnt.(sl) <- t.cnt.(sl) - w;
    if t.cnt.(sl) = 0 then t.num_edges <- t.num_edges - 1
  end
  else
    match Hashtbl.find_opt t.over c1 with
    | None -> not_present ()
    | Some tbl -> (
      match Hashtbl.find_opt tbl c2 with
      | None -> not_present ()
      | Some e ->
        (match drop_one pair e.o_pairs with
        | None -> invalid_arg "Cdg.remove_path: pair not on edge"
        | Some rest -> e.o_pairs <- rest);
        e.o_count <- e.o_count - w;
        if e.o_count = 0 then begin
          Hashtbl.remove tbl c2;
          t.over_edges <- t.over_edges - 1;
          t.num_edges <- t.num_edges - 1
        end)

let add_path t ~pair p =
  for i = 0 to Array.length p - 2 do
    add_edge t p.(i) p.(i + 1) pair 1
  done;
  t.num_paths <- t.num_paths + 1;
  maybe_compact t

let remove_path t ~pair p =
  for i = 0 to Array.length p - 2 do
    remove_edge t p.(i) p.(i + 1) pair 1
  done;
  t.num_paths <- t.num_paths - 1

let add_pair t store ~pair =
  let w = Route_store.weight store ~pair in
  Route_store.iter_deps store ~pair (fun c1 c2 -> add_edge t c1 c2 pair w);
  t.num_paths <- t.num_paths + 1;
  maybe_compact t

let remove_pair t store ~pair =
  let w = Route_store.weight store ~pair in
  Route_store.iter_deps store ~pair (fun c1 c2 -> remove_edge t c1 c2 pair w);
  t.num_paths <- t.num_paths - 1

let edge_count t ~c1 ~c2 =
  let sl = find_slot t c1 c2 in
  if sl >= 0 then t.cnt.(sl)
  else match find_over t c1 c2 with Some e -> e.o_count | None -> 0

let live t ~c1 ~c2 = edge_count t ~c1 ~c2 > 0

let edge_pairs t ~c1 ~c2 =
  let sl = find_slot t c1 c2 in
  if sl >= 0 then begin
    if t.cnt.(sl) = 0 then []
    else begin
      let acc = ref t.extra.(sl) in
      for i = t.poff.(sl + 1) - 1 downto t.poff.(sl) do
        if t.pbuf.(i) >= 0 then acc := t.pbuf.(i) :: !acc
      done;
      !acc
    end
  end
  else match find_over t c1 c2 with Some e -> e.o_pairs | None -> []

let iter_successors t c f =
  for sl = t.row.(c) to t.row.(c + 1) - 1 do
    if t.cnt.(sl) > 0 then f t.col.(sl)
  done;
  match Hashtbl.find_opt t.over c with
  | None -> ()
  | Some tbl -> Hashtbl.iter (fun c2 _ -> f c2) tbl

let exists_successor t c f =
  let hi = t.row.(c + 1) in
  let rec go sl = sl < hi && ((t.cnt.(sl) > 0 && f t.col.(sl)) || go (sl + 1)) in
  go t.row.(c)
  ||
  match Hashtbl.find_opt t.over c with
  | None -> false
  | Some tbl -> Hashtbl.fold (fun c2 _ acc -> acc || f c2) tbl false

let for_all_successors t c f = not (exists_successor t c (fun s -> not (f s)))

let slot_range t c = (t.row.(c), t.row.(c + 1))

let slot_col t sl = t.col.(sl)

let slot_live t sl = t.cnt.(sl) > 0

let slot_count t sl = t.cnt.(sl)

let iter_slot_pairs t sl f =
  for i = t.poff.(sl) to t.poff.(sl + 1) - 1 do
    if t.pbuf.(i) >= 0 then f t.pbuf.(i)
  done;
  List.iter f t.extra.(sl)

let no_over = [||]

let overlay_successors t c =
  match Hashtbl.find_opt t.over c with
  | None -> no_over
  | Some tbl ->
    let out = Array.make (Hashtbl.length tbl) 0 in
    let i = ref 0 in
    Hashtbl.iter
      (fun c2 _ ->
        out.(!i) <- c2;
        incr i)
      tbl;
    out

let successors t c =
  let n = ref 0 in
  for sl = t.row.(c) to t.row.(c + 1) - 1 do
    if t.cnt.(sl) > 0 then incr n
  done;
  (match Hashtbl.find_opt t.over c with None -> () | Some tbl -> n := !n + Hashtbl.length tbl);
  let out = Array.make !n 0 in
  let i = ref 0 in
  iter_successors t c (fun c2 ->
      out.(!i) <- c2;
      incr i);
  out

let num_edges t = t.num_edges

let num_paths t = t.num_paths

let is_empty t = t.num_paths = 0

let overlay_edges t = t.over_edges

let iter_edges t f =
  let m = Array.length t.row - 1 in
  for c1 = 0 to m - 1 do
    for sl = t.row.(c1) to t.row.(c1 + 1) - 1 do
      if t.cnt.(sl) > 0 then f c1 t.col.(sl) t.cnt.(sl)
    done
  done;
  Hashtbl.iter (fun c1 tbl -> Hashtbl.iter (fun c2 e -> f c1 c2 e.o_count) tbl) t.over

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
  {
    graph = g;
    row;
    col;
    cnt;
    poff;
    pbuf;
    extra = Array.make nslots [];
    over = Hashtbl.create 16;
    over_edges = 0;
    num_edges = nslots;
    num_paths = !npaths;
  }
