type flow = int * int

let random_bisection rng ranks =
  let n = Array.length ranks in
  if n < 2 then invalid_arg "Patterns.random_bisection: need at least 2 ranks";
  let shuffled = Array.copy ranks in
  Netgraph.Rng.shuffle rng shuffled;
  let half = n / 2 in
  Array.init half (fun i -> (shuffled.(i), shuffled.(half + i)))

let all_to_all ranks =
  let n = Array.length ranks in
  let out = Array.make (n * (n - 1)) (0, 0) in
  let k = ref 0 in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if a <> b then begin
            out.(!k) <- (a, b);
            incr k
          end)
        ranks)
    ranks;
  out

let ring_shift ~by ranks =
  let n = Array.length ranks in
  if n = 0 then [||]
  else begin
    let by = ((by mod n) + n) mod n in
    if by = 0 then [||] else Array.init n (fun i -> (ranks.(i), ranks.((i + by) mod n)))
  end

(* Deduplicating flow collector: NAS skeletons touch each (src, dst) once
   even when several exchanges share partners. *)
let collect_flows add_all =
  let seen = Hashtbl.create 256 in
  let flows = ref [] in
  let add a b =
    if a <> b && not (Hashtbl.mem seen (a, b)) then begin
      Hashtbl.replace seen (a, b) ();
      flows := (a, b) :: !flows
    end
  in
  add_all add;
  Array.of_list (List.rev !flows)

let exact_sqrt n =
  let r = int_of_float (sqrt (float_of_int n)) in
  let candidates = [ r - 1; r; r + 1 ] in
  List.find_opt (fun c -> c > 0 && c * c = n) candidates

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let permutation name f ranks =
  let n = Array.length ranks in
  let out = ref [] in
  let rec go i =
    if i >= n then Ok (Array.of_list (List.rev !out))
    else begin
      let j = f i in
      if j < 0 || j >= n then Error (Printf.sprintf "%s: image out of range" name)
      else begin
        if i <> j then out := (ranks.(i), ranks.(j)) :: !out;
        go (i + 1)
      end
    end
  in
  go 0

let bit_complement ranks =
  let n = Array.length ranks in
  if not (is_power_of_two n) then Error (Printf.sprintf "bit_complement: %d ranks not a power of two" n)
  else permutation "bit_complement" (fun i -> lnot i land (n - 1)) ranks

let bit_reverse ranks =
  let n = Array.length ranks in
  if not (is_power_of_two n) then Error (Printf.sprintf "bit_reverse: %d ranks not a power of two" n)
  else begin
    let bits =
      let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
      go 0 n
    in
    let rev i =
      let r = ref 0 in
      for b = 0 to bits - 1 do
        if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
      done;
      !r
    in
    permutation "bit_reverse" rev ranks
  end

let transpose ranks =
  let n = Array.length ranks in
  match exact_sqrt n with
  | None -> Error (Printf.sprintf "transpose: %d ranks not a perfect square" n)
  | Some side -> permutation "transpose" (fun i -> ((i mod side) * side) + (i / side)) ranks

let tornado ranks =
  let n = Array.length ranks in
  if n < 3 then Error "tornado: need at least 3 ranks"
  else permutation "tornado" (fun i -> (i + (n / 2) - 1) mod n) ranks

let adversarial =
  [ ("bit-complement", bit_complement); ("bit-reverse", bit_reverse); ("transpose", transpose); ("tornado", tornado) ]

let square_torus_halo name ranks =
  let n = Array.length ranks in
  match exact_sqrt n with
  | None -> Error (Printf.sprintf "%s: rank count %d is not a perfect square" name n)
  | Some side ->
    Ok
      (collect_flows (fun add ->
           for r = 0 to side - 1 do
             for c = 0 to side - 1 do
               let me = ranks.((r * side) + c) in
               let at rr cc = ranks.((((rr + side) mod side) * side) + ((cc + side) mod side)) in
               add me (at (r - 1) c);
               add me (at (r + 1) c);
               add me (at r (c - 1));
               add me (at r (c + 1))
             done
           done))

let nas_bt ranks = square_torus_halo "nas_bt" ranks

let nas_sp ranks = square_torus_halo "nas_sp" ranks

let nas_ft ranks =
  if Array.length ranks < 2 then Error "nas_ft: need at least 2 ranks" else Ok (all_to_all ranks)

let nas_cg ranks =
  let n = Array.length ranks in
  if not (is_power_of_two n) then Error (Printf.sprintf "nas_cg: rank count %d is not a power of two" n)
  else begin
    (* CG lays ranks on a num_rows x num_cols grid (rows as square as
       possible); each rank exchanges with its row partners (reduction
       butterfly within the row) and its transpose partner. *)
    let log2 v =
      let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
      go 0 v
    in
    let l = log2 n in
    let rows = 1 lsl ((l + 1) / 2) in
    let cols = n / rows in
    Ok
      (collect_flows (fun add ->
           for r = 0 to rows - 1 do
             for c = 0 to cols - 1 do
               let me = ranks.((r * cols) + c) in
               (* butterfly partners within the row *)
               let d = ref 1 in
               while !d < cols do
                 add me ranks.((r * cols) + (c lxor !d));
                 d := !d * 2
               done;
               (* transpose partner (swap row/col blocks) *)
               if rows = cols then add me ranks.((c * cols) + r)
               else begin
                 let partner = (c * rows) + r in
                 add me ranks.(partner mod n)
               end
             done
           done))
  end

let nas_mg ranks =
  let n = Array.length ranks in
  if not (is_power_of_two n) then Error (Printf.sprintf "nas_mg: rank count %d is not a power of two" n)
  else begin
    (* 3-D decomposition as cubic as possible; halo partners at distances
       1, 2, 4, ... per dimension (coarser grids reach further). *)
    let dims = [| 1; 1; 1 |] in
    let rec split v d =
      if v > 1 then begin
        dims.(d) <- dims.(d) * 2;
        split (v / 2) ((d + 1) mod 3)
      end
    in
    split n 0;
    let dx = dims.(0) and dy = dims.(1) and dz = dims.(2) in
    let at x y z = ranks.((((x + dx) mod dx) * dy * dz) + (((y + dy) mod dy) * dz) + ((z + dz) mod dz)) in
    Ok
      (collect_flows (fun add ->
           for x = 0 to dx - 1 do
             for y = 0 to dy - 1 do
               for z = 0 to dz - 1 do
                 let me = at x y z in
                 let dist = ref 1 in
                 while !dist < max dx (max dy dz) do
                   if dx > 1 then begin
                     add me (at (x + !dist) y z);
                     add me (at (x - !dist) y z)
                   end;
                   if dy > 1 then begin
                     add me (at x (y + !dist) z);
                     add me (at x (y - !dist) z)
                   end;
                   if dz > 1 then begin
                     add me (at x y (z + !dist));
                     add me (at x y (z - !dist))
                   end;
                   dist := !dist * 2
                 done
               done
             done
           done))
  end

let nas_lu ranks =
  let n = Array.length ranks in
  if n < 2 then Error "nas_lu: need at least 2 ranks"
  else begin
    (* LU uses a 2-D grid as square as possible: the largest divisor of n
       not exceeding sqrt n gives the row count. *)
    let rows =
      let r = int_of_float (sqrt (float_of_int n)) in
      let rec down v = if v <= 1 then 1 else if n mod v = 0 then v else down (v - 1) in
      down (max 1 r)
    in
    let cols = n / rows in
    Ok
      (collect_flows (fun add ->
           for r = 0 to rows - 1 do
             for c = 0 to cols - 1 do
               let me = ranks.((r * cols) + c) in
               if r > 0 then add me ranks.(((r - 1) * cols) + c);
               if r < rows - 1 then add me ranks.(((r + 1) * cols) + c);
               if c > 0 then add me ranks.((r * cols) + (c - 1));
               if c < cols - 1 then add me ranks.((r * cols) + (c + 1))
             done
           done))
  end

let nas_kernels =
  [ ("BT", nas_bt); ("CG", nas_cg); ("FT", nas_ft); ("LU", nas_lu); ("MG", nas_mg); ("SP", nas_sp) ]
