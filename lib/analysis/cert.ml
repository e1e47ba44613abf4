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

(* The dependencies a certificate speaks about: route slices of a store,
   each riding one or more layers ([rides], in check order), plus single
   dependencies ([hops]) — the injection hops of route classes. *)
module Routes = struct
  type t = {
    store : Route_store.t;
    noun : string; (* what a slice is, for refusals *)
    ride_slice : int array;
    ride_layer : int array;
    hop_layer : int array;
    hop_from : int array;
    hop_to : int array;
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
    {
      store;
      noun = "pair";
      ride_slice;
      ride_layer = Array.map (fun p -> layer_of_path.(p)) ride_slice;
      hop_layer = [||];
      hop_from = [||];
      hop_to = [||];
    }

  (* A class rides every layer one of its pairs rides, and pair (t, d)
     adds the injection hop (entry t d, first channel of its class) to
     its own layer: together exactly the dependencies of the per-pair
     store, layer by layer. Repeated hops are dropped where cheap (a
     stamp per channel); a repeat left in only adds multiplicity. *)
  let of_classes ft (cls : Ftable.classes) =
    let store = cls.Ftable.store in
    let nt = Graph.num_terminals (Ftable.graph ft) in
    let m = Graph.num_channels (Route_store.graph store) in
    let buf = Route_store.buffer store
    and off = Route_store.offsets store
    and len = Route_store.lengths store in
    let layer = Ftable.pair_layers ft in
    let first = Array.make (Array.length len) (-1) in
    let extra = Hashtbl.create 16 in
    let stamp = Array.make m (-1) in
    let hops = ref [] in
    for si = 0 to nt - 1 do
      for di = 0 to nt - 1 do
        let p = (si * nt) + di in
        let k = cls.Ftable.class_of_pair.(p) in
        if k >= 0 then begin
          let l = layer.(p) in
          if first.(k) < 0 then first.(k) <- l
          else if first.(k) <> l then Hashtbl.replace extra (k, l) ();
          if len.(k) > 0 then begin
            let e = Ftable.entry ft ~src_index:si ~dst_index:di and f = buf.(off.(k)) in
            let key = (e * 256) + l in
            if stamp.(f) <> key then begin
              stamp.(f) <- key;
              hops := (l, e, f) :: !hops
            end
          end
        end
      done
    done;
    (* every class at its first pair's layer, then the other layers of
       the classes whose pairs ride several *)
    let extra = Array.of_list (List.sort compare (Hashtbl.fold (fun kl () acc -> kl :: acc) extra [])) in
    let nc = Array.fold_left (fun n l -> if l >= 0 then n + 1 else n) 0 first in
    let present = Array.make nc 0 and fill = ref 0 in
    Array.iteri
      (fun k l ->
        if l >= 0 then begin
          present.(!fill) <- k;
          incr fill
        end)
      first;
    let ne = Array.length extra in
    let hops = Array.of_list (List.rev !hops) in
    {
      store;
      noun = "class";
      ride_slice = Array.init (nc + ne) (fun i -> if i < nc then present.(i) else fst extra.(i - nc));
      ride_layer = Array.init (nc + ne) (fun i -> if i < nc then first.(present.(i)) else snd extra.(i - nc));
      hop_layer = Array.map (fun (l, _, _) -> l) hops;
      hop_from = Array.map (fun (_, e, _) -> e) hops;
      hop_to = Array.map (fun (_, _, f) -> f) hops;
    }

  let layers r =
    1 + Array.fold_left max (Array.fold_left max (-1) r.ride_layer) r.hop_layer
end

(* One topological numbering per layer, each by Kahn's algorithm over a
   throwaway CSR adjacency built straight from the routes' dependencies —
   deliberately NOT Deadlock.Cdg: the certifier must not share code with
   the machinery it certifies. The loops read the route arena directly
   (the dependencies of a slice are the consecutive [buf.(i), buf.(i+1)]).
   Multi-edges are kept (indegree counts multiplicity); they change
   nothing about the order. *)
let generate (r : Routes.t) ~num_layers =
  if num_layers < 1 then invalid_arg "Cert.generate: num_layers < 1";
  let g = Route_store.graph r.store in
  let m = Graph.num_channels g in
  let buf = Route_store.buffer r.store
  and off = Route_store.offsets r.store
  and len = Route_store.lengths r.store in
  (* [f c1 c2] on every dependency riding layer [l] *)
  let iter_layer l f =
    for i = 0 to Array.length r.ride_slice - 1 do
      if r.ride_layer.(i) = l then begin
        let s = r.ride_slice.(i) in
        for j = off.(s) to off.(s) + len.(s) - 2 do
          f buf.(j) buf.(j + 1)
        done
      end
    done;
    for i = 0 to Array.length r.hop_layer - 1 do
      if r.hop_layer.(i) = l then f r.hop_from.(i) r.hop_to.(i)
    done
  in
  let failure = ref None in
  let layers =
    Array.init num_layers (fun l ->
        match !failure with
        | Some _ -> [||]
        | None ->
          let row = Array.make (m + 1) 0 in
          iter_layer l (fun c1 _ -> row.(c1 + 1) <- row.(c1 + 1) + 1);
          for c = 0 to m - 1 do
            row.(c + 1) <- row.(c + 1) + row.(c)
          done;
          let col = Array.make row.(m) 0 in
          let cursor = Array.copy row in
          let indeg = Array.make m 0 in
          iter_layer l (fun c1 c2 ->
              col.(cursor.(c1)) <- c2;
              cursor.(c1) <- cursor.(c1) + 1;
              indeg.(c2) <- indeg.(c2) + 1);
          let pos = Array.make m 0 in
          let queue = Queue.create () in
          for c = 0 to m - 1 do
            if indeg.(c) = 0 then Queue.add c queue
          done;
          let k = ref 0 in
          while not (Queue.is_empty queue) do
            let c = Queue.take queue in
            pos.(c) <- !k;
            incr k;
            for s = row.(c) to cursor.(c) - 1 do
              let c2 = col.(s) in
              indeg.(c2) <- indeg.(c2) - 1;
              if indeg.(c2) = 0 then Queue.add c2 queue
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
  let m = Graph.num_channels (Route_store.graph r.store) in
  if cert.num_channels <> m then
    Error (Printf.sprintf "certificate covers %d channels, fabric has %d" cert.num_channels m)
  else if Array.exists (fun pos -> Array.length pos <> m) cert.layers then
    Error "a layer's numbering does not cover every channel"
  else begin
    let k = Array.length cert.layers in
    let buf = Route_store.buffer r.store
    and off = Route_store.offsets r.store
    and len = Route_store.lengths r.store in
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
      Array.iteri
        (fun i s ->
          let l = r.ride_layer.(i) in
          within r.noun s l;
          for j = off.(s) to off.(s) + len.(s) - 2 do
            ascending l buf.(j) buf.(j + 1)
          done)
        r.ride_slice;
      Array.iteri
        (fun i l ->
          within "injection hop" i l;
          ascending l r.hop_from.(i) r.hop_to.(i))
        r.hop_layer;
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
