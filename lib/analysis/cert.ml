type t = {
  num_channels : int;
  layers : int array array;
}

let num_layers t = Array.length t.layers

type error =
  | Incomplete of string
  | Cycle of {
      layer : int;
      stuck : int;
    }

let error_to_string = function
  | Incomplete msg -> Printf.sprintf "nothing to certify: %s" msg
  | Cycle { layer; stuck } ->
    Printf.sprintf "layer %d: channel dependency cycle (%d channel(s) unsortable)" layer stuck

(* The dependencies a certificate speaks about, in one of two forms:
   route slices of a per-pair store, each riding one layer ([Slices], in
   check order), or the distinct dependencies of a table's destination
   trees grouped by layer ([Trees]). *)
module Routes = struct
  type t =
    | Slices of {
        store : Route_store.t;
        ride_slice : int array;
        ride_layer : int array;
      }
    | Trees of {
        num_channels : int;
        num_layers : int; (* 1 + the highest layer a pair rides *)
        start : int array;
            (* layer [l]'s dependencies are [from_.(i) -> to_.(i)] for
               [start.(l) <= i < start.(l + 1)] *)
        from_ : int array;
        to_ : int array;
      }

  let of_store store ~layer_of_path =
    let len = Route_store.lengths store in
    let ride_slice = Array.make (Route_store.num_paths store) 0 and n = ref 0 in
    Array.iteri
      (fun p l ->
        if l >= 0 then begin
          ride_slice.(!n) <- p;
          incr n
        end)
      len;
    Slices { store; ride_slice; ride_layer = Array.map (fun p -> layer_of_path.(p)) ride_slice }

  exception Incomplete

  (* The first pair in pair-id order whose entry is unset or whose walk
     from its entry node fails to reach the destination: it dies, loops,
     or enters another terminal (a terminal is an endpoint). Per
     destination, every node's verdict is memoised, so each node is
     walked once. Only a refused table pays for this search. *)
  let first_failure ft =
    let g = Ftable.graph ft in
    let terminals = Graph.terminals g and head = Graph.heads g in
    let nt = Array.length terminals and n = Graph.num_nodes g in
    (* toward the current destination: 0 unknown, 1 on the current walk,
       2 reaches it, 3 fails *)
    let memo = Array.make n 0 and stack = Array.make n 0 in
    let reaches di v =
      let u = ref v and top = ref 0 in
      while memo.(!u) = 0 do
        memo.(!u) <- 1;
        stack.(!top) <- !u;
        incr top;
        let c = (Ftable.row ft ~node:!u).(di) in
        if c < 0 then memo.(!u) <- 3 else u := head.(c)
      done;
      let r = if memo.(!u) = 2 then 2 else 3 in
      for k = 0 to !top - 1 do
        memo.(stack.(k)) <- r
      done;
      r = 2
    in
    let routed si di =
      si = di
      ||
      let e = Ftable.entry ft ~src_index:si ~dst_index:di in
      e >= 0 && reaches di head.(e)
    in
    (* the first failing (source, destination) so far; source [nt]: none *)
    let best = ref (nt, 0) in
    for di = 0 to nt - 1 do
      Array.fill memo 0 n 0;
      Array.iter (fun v -> memo.(v) <- 3) terminals;
      memo.(terminals.(di)) <- 2;
      let si = ref 0 in
      while !si < fst !best && routed !si di do
        incr si
      done;
      if !si < fst !best then best := (!si, di)
    done;
    let si, di = !best in
    if si = nt then invalid_arg "Cert.Routes.of_table: no failing pair";
    Printf.sprintf "no loop-free route %d -> %d" terminals.(si) terminals.(di)

  (* Two passes over the table, reading only its entries and layers.

     Row by row, pair (t, d) enters node s = head (entry t d), then
     follows d's tree from s. Its injection hop (entry, next s d) joins
     its layer's dependencies, and (s, d) is noted as ridden in that
     layer. Destination by destination and layer by layer, the tree of d
     is then followed from every entry node noted for (d, L), stopping
     after the hop into the first node already walked for (d, L): each
     tree edge is derived once per (d, L).

     A dependency c1 -> c2 is a turn at node head c1 = tail c2, so each
     layer's dependency set is a bitset over the fabric's turns, which
     makes the output distinct and sized exactly. *)
  let walk ft =
    let g = Ftable.graph ft in
    let n = Graph.num_nodes g and m = Graph.num_channels g in
    let terminals = Graph.terminals g in
    let nt = Array.length terminals in
    let head = Graph.heads g and tail = Graph.tails g in
    let tindex = Array.make n (-1) in
    Array.iteri (fun i v -> tindex.(v) <- i) terminals;
    (* turn (c1, c2) has id [base.(c1) + slot.(c2)] ({!Graph.turn_base});
       the numbering covers disabled channels, which a table may name *)
    let lstart = Graph.leaving_start g and leaving = Graph.leaving g in
    let slot = Graph.turn_slot g and base = Graph.turn_base g in
    let bytes = (base.(m) lsr 3) + 1 in
    let bits = Array.make Ftable.max_layer_ids Bytes.empty
    and count = Array.make Ftable.max_layer_ids 0 in
    let add l c1 c2 =
      if Bytes.length bits.(l) = 0 then bits.(l) <- Bytes.make bytes '\000';
      let b = bits.(l) and i = base.(c1) + slot.(c2) in
      let byte = Char.code (Bytes.unsafe_get b (i lsr 3)) and bit = 1 lsl (i land 7) in
      if byte land bit = 0 then begin
        Bytes.unsafe_set b (i lsr 3) (Char.unsafe_chr (byte lor bit));
        count.(l) <- count.(l) + 1
      end
    in
    (* entry nodes: the switches a terminal's channel enters *)
    let rank = Array.make n (-1) and entries = Array.make n 0 and ne = ref 0 in
    for c = 0 to m - 1 do
      let s = head.(c) in
      if tindex.(tail.(c)) >= 0 && tindex.(s) < 0 && rank.(s) < 0 then begin
        rank.(s) <- !ne;
        entries.(!ne) <- s;
        incr ne
      end
    done;
    let ne = !ne in
    (* per (entry rank, destination index): ['\000'] no pair, ['\001'] the
       pairs ride [layer_of], ['\002'] they ride it and the layers listed
       in [extra] *)
    let rides = Bytes.make (ne * nt) '\000' and layer_of = Bytes.make (ne * nt) '\000' in
    let extra = Hashtbl.create 16 and top = ref 0 in
    for si = 0 to nt - 1 do
      let t = terminals.(si) in
      let row = Ftable.row ft ~node:t and layers = Ftable.layer_row ft ~src_index:si in
      (* a terminal has one entry channel, as a rule: cache what it gives *)
      let last = ref (-1) and s = ref (-1) and srow = ref row and kbase = ref 0 in
      for di = 0 to nt - 1 do
        if si <> di then begin
          let e = row.(di) in
          if e < 0 then raise Incomplete;
          let l = match layers with None -> 0 | Some b -> Char.code (Bytes.unsafe_get b di) in
          if l > !top then top := l;
          if e <> !last then begin
            last := e;
            s := head.(e);
            srow := Ftable.row ft ~node:!s;
            kbase := rank.(!s) * nt
          end;
          if !s <> terminals.(di) then begin
            if tindex.(!s) >= 0 then raise Incomplete;
            let f = !srow.(di) in
            if f < 0 then raise Incomplete;
            add l e f;
            let k = !kbase + di in
            match Bytes.unsafe_get rides k with
            | '\000' ->
              Bytes.unsafe_set rides k '\001';
              Bytes.unsafe_set layer_of k (Char.unsafe_chr l)
            | _ when Char.code (Bytes.unsafe_get layer_of k) = l -> ()
            | _ ->
              Bytes.unsafe_set rides k '\002';
              Hashtbl.replace extra (k, l) ()
          end
        end
      done
    done;
    let extra_of = Array.make nt [] in
    Hashtbl.iter (fun (k, l) () -> extra_of.(k mod nt) <- (k / nt, l) :: extra_of.(k mod nt)) extra;
    let mark = Array.make n (-1) and on = Array.make n (-1) and stamp = ref 0 and walks = ref 0 in
    (* d's tree from [s] in layer [l], up to the first node walked for
       (d, l) in this stamp; a node of this very walk seen again is a
       forwarding loop *)
    let walk_from ~d ~di ~l s =
      if mark.(s) <> !stamp then begin
        incr walks;
        mark.(s) <- !stamp;
        on.(s) <- !walks;
        let c = ref (Ftable.row ft ~node:s).(di) and go = ref true in
        while !go do
          let v = head.(!c) in
          if v = d then go := false
          else begin
            if tindex.(v) >= 0 then raise Incomplete;
            let c2 = (Ftable.row ft ~node:v).(di) in
            if c2 < 0 then raise Incomplete;
            add l !c c2;
            if mark.(v) = !stamp then begin
              if on.(v) = !walks then raise Incomplete;
              go := false
            end
            else begin
              mark.(v) <- !stamp;
              on.(v) <- !walks;
              c := c2
            end
          end
        done
      end
    in
    (* per destination, the first layer met is walked in the same scan
       as the notes are read; each further layer
       ([others.(0 .. nothers - 1)]) gets a scan of its own *)
    let seen = Array.make Ftable.max_layer_ids (-1) and others = Array.make Ftable.max_layer_ids 0 in
    for di = 0 to nt - 1 do
      let d = terminals.(di) and first = ref (-1) and nothers = ref 0 in
      let visit l r =
        if !first < 0 then first := l;
        if l = !first then walk_from ~d ~di ~l entries.(r)
        else if seen.(l) <> di then begin
          seen.(l) <- di;
          others.(!nothers) <- l;
          incr nothers
        end
      in
      incr stamp;
      for r = 0 to ne - 1 do
        let k = (r * nt) + di in
        if Bytes.unsafe_get rides k <> '\000' then visit (Char.code (Bytes.unsafe_get layer_of k)) r
      done;
      List.iter (fun (r, l) -> visit l r) extra_of.(di);
      for i = 0 to !nothers - 1 do
        let l = others.(i) in
        incr stamp;
        for r = 0 to ne - 1 do
          let k = (r * nt) + di in
          if Bytes.unsafe_get rides k <> '\000' && Char.code (Bytes.unsafe_get layer_of k) = l then
            walk_from ~d ~di ~l entries.(r)
        done;
        List.iter (fun (r, l') -> if l' = l then walk_from ~d ~di ~l entries.(r)) extra_of.(di)
      done
    done;
    (* the bitsets, read back in turn order *)
    let num_layers = !top + 1 in
    let total = Array.fold_left ( + ) 0 count in
    let start = Array.make (num_layers + 1) 0 and from_ = Array.make total 0 and to_ = Array.make total 0 in
    let o = ref 0 in
    for l = 0 to num_layers - 1 do
      start.(l) <- !o;
      let b = bits.(l) in
      if Bytes.length b > 0 then
        for c1 = 0 to m - 1 do
          let v = head.(c1) in
          for j = 0 to lstart.(v + 1) - lstart.(v) - 1 do
            let i = base.(c1) + j in
            if Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0 then begin
              from_.(!o) <- c1;
              to_.(!o) <- leaving.(lstart.(v) + j);
              incr o
            end
          done
        done
    done;
    start.(num_layers) <- !o;
    Trees { num_channels = m; num_layers; start; from_; to_ }

  let of_table ft = try Ok (walk ft) with Incomplete -> Error (first_failure ft)

  let num_channels = function
    | Slices { store; _ } -> Graph.num_channels (Route_store.graph store)
    | Trees { num_channels; _ } -> num_channels

  let layers = function
    | Slices { ride_layer; _ } -> 1 + Array.fold_left max (-1) ride_layer
    | Trees { num_layers; _ } -> num_layers

  (* [iter_layer r l f] calls [f c1 c2] on every dependency riding layer
     [l]: the consecutive channels of a slice, or a tree dependency. *)
  let iter_layer r l f =
    match r with
    | Slices { store; ride_slice; ride_layer } ->
      let buf = Route_store.buffer store
      and off = Route_store.offsets store
      and len = Route_store.lengths store in
      for i = 0 to Array.length ride_slice - 1 do
        if ride_layer.(i) = l then begin
          let s = ride_slice.(i) in
          for j = off.(s) to off.(s) + len.(s) - 2 do
            f buf.(j) buf.(j + 1)
          done
        end
      done
    | Trees { num_layers; start; from_; to_; _ } ->
      if l < num_layers then
        for i = start.(l) to start.(l + 1) - 1 do
          f from_.(i) to_.(i)
        done
end

(* One topological numbering per layer, each by Kahn's algorithm over a
   throwaway CSR adjacency built straight from the routes' dependencies —
   deliberately NOT Deadlock.Cdg: the certifier must not share code with
   the machinery it certifies. Multi-edges of a slice form are kept
   (indegree counts multiplicity); they change nothing about the order
   or about which channels a cycle leaves unsorted. *)
let generate (r : Routes.t) ~num_layers =
  if num_layers < 1 then invalid_arg "Cert.generate: num_layers < 1";
  let m = Routes.num_channels r in
  let failure = ref None in
  let layers =
    Array.init num_layers (fun l ->
        match !failure with
        | Some _ -> [||]
        | None ->
          let row = Array.make (m + 1) 0 in
          Routes.iter_layer r l (fun c1 _ -> row.(c1 + 1) <- row.(c1 + 1) + 1);
          for c = 0 to m - 1 do
            row.(c + 1) <- row.(c + 1) + row.(c)
          done;
          let col = Array.make row.(m) 0 in
          let cursor = Array.copy row in
          let indeg = Array.make m 0 in
          Routes.iter_layer r l (fun c1 c2 ->
              col.(cursor.(c1)) <- c2;
              cursor.(c1) <- cursor.(c1) + 1;
              indeg.(c2) <- indeg.(c2) + 1);
          (* [queue.(0 .. tail - 1)] is the order so far; [k] channels
             of it are numbered *)
          let pos = Array.make m 0 and queue = Array.make m 0 and tail = ref 0 in
          for c = 0 to m - 1 do
            if indeg.(c) = 0 then begin
              queue.(!tail) <- c;
              incr tail
            end
          done;
          let k = ref 0 in
          while !k < !tail do
            let c = queue.(!k) in
            pos.(c) <- !k;
            incr k;
            for s = row.(c) to cursor.(c) - 1 do
              let c2 = col.(s) in
              indeg.(c2) <- indeg.(c2) - 1;
              if indeg.(c2) = 0 then begin
                queue.(!tail) <- c2;
                incr tail
              end
            done
          done;
          if !k < m then begin
            failure := Some (Cycle { layer = l; stuck = m - !k });
            [||]
          end
          else pos)
  in
  match !failure with
  | Some e -> Error e
  | None -> Ok { num_channels = m; layers }

(* Layers cover both the declared layer count and the highest layer any
   route uses. *)
let of_routes ft r = generate r ~num_layers:(max (Ftable.num_layers ft) (Routes.layers r))

exception Violation of string

let check_routes cert (r : Routes.t) =
  let m = Routes.num_channels r in
  if cert.num_channels <> m then
    Error (Printf.sprintf "certificate covers %d channels, fabric has %d" cert.num_channels m)
  else if Array.exists (fun pos -> Array.length pos <> m) cert.layers then
    Error "a layer's numbering does not cover every channel"
  else begin
    let k = Array.length cert.layers in
    let ascending l c1 c2 =
      let pos = cert.layers.(l) in
      if pos.(c1) >= pos.(c2) then
        raise
          (Violation
             (Printf.sprintf "layer %d: dependency %d -> %d not ascending (%d >= %d)" l c1 c2 pos.(c1)
                pos.(c2)))
    in
    let within what id l =
      if l < 0 || l >= k then
        raise (Violation (Printf.sprintf "%s %d rides layer %d outside the certificate's %d" what id l k))
    in
    try
      (match r with
      | Routes.Slices { store; ride_slice; ride_layer } ->
        let buf = Route_store.buffer store
        and off = Route_store.offsets store
        and len = Route_store.lengths store in
        Array.iteri
          (fun i s ->
            let l = ride_layer.(i) in
            within "pair" s l;
            for j = off.(s) to off.(s) + len.(s) - 2 do
              ascending l buf.(j) buf.(j + 1)
            done)
          ride_slice
      | Routes.Trees { num_layers; start; from_; to_; _ } ->
        if num_layers > k then
          raise
            (Violation
               (Printf.sprintf "a pair rides layer %d outside the certificate's %d" (num_layers - 1) k));
        for l = 0 to num_layers - 1 do
          for i = start.(l) to start.(l + 1) - 1 do
            ascending l from_.(i) to_.(i)
          done
        done);
      Ok ()
    with Violation msg -> Error msg
  end

let to_string t =
  let buf = Buffer.create (16 * t.num_channels * Array.length t.layers) in
  Buffer.add_string buf
    (Printf.sprintf "certificate v1 channels %d layers %d\n" t.num_channels (Array.length t.layers));
  Array.iteri
    (fun l pos ->
      Buffer.add_string buf (Printf.sprintf "layer %d" l);
      Array.iter
        (fun p ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int p))
        pos;
      Buffer.add_char buf '\n')
    t.layers;
  Buffer.add_string buf "end\n";
  Buffer.contents buf
