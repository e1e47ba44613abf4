type t = {
  mutable size : int;
  elt : int array; (* heap slot -> element *)
  pos : int array; (* element -> heap slot, or -1 (valid while stamp = gen) *)
  prio : int array; (* element -> priority (valid while pos >= 0 and stamp = gen) *)
  stamp : int array; (* element -> generation that last wrote pos.(x) *)
  mutable gen : int; (* current generation; bumped by clear *)
}

let create capacity =
  if capacity < 0 then invalid_arg "Heap.create";
  let cap = max capacity 1 in
  {
    size = 0;
    elt = Array.make cap (-1);
    pos = Array.make cap (-1);
    prio = Array.make cap 0;
    stamp = Array.make cap (-1);
    gen = 0;
  }

let size t = t.size

let mem t x =
  x >= 0 && x < Array.length t.pos && t.stamp.(x) = t.gen && t.pos.(x) >= 0

let swap t i j =
  let a = t.elt.(i) and b = t.elt.(j) in
  t.elt.(i) <- b;
  t.elt.(j) <- a;
  t.pos.(a) <- j;
  t.pos.(b) <- i

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.prio.(t.elt.(i)) < t.prio.(t.elt.(parent)) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.prio.(t.elt.(l)) < t.prio.(t.elt.(!smallest)) then smallest := l;
  if r < t.size && t.prio.(t.elt.(r)) < t.prio.(t.elt.(!smallest)) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let insert t x p =
  if x < 0 || x >= Array.length t.pos then invalid_arg "Heap.insert: out of range";
  if mem t x then invalid_arg "Heap.insert: already present";
  let i = t.size in
  t.size <- t.size + 1;
  t.elt.(i) <- x;
  t.pos.(x) <- i;
  t.stamp.(x) <- t.gen;
  t.prio.(x) <- p;
  sift_up t i

let decrease t x p =
  if not (mem t x) then invalid_arg "Heap.decrease: absent";
  if p > t.prio.(x) then invalid_arg "Heap.decrease: priority increase";
  t.prio.(x) <- p;
  sift_up t t.pos.(x)

let insert_or_decrease t x p =
  if mem t x then (if p < t.prio.(x) then decrease t x p) else insert t x p

let pop_min t =
  if t.size = 0 then None
  else begin
    let x = t.elt.(0) in
    let p = t.prio.(x) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      let last = t.elt.(t.size) in
      t.elt.(0) <- last;
      t.pos.(last) <- 0;
      sift_down t 0
    end;
    t.pos.(x) <- -1;
    Some (x, p)
  end

let clear t =
  t.gen <- t.gen + 1;
  t.size <- 0
