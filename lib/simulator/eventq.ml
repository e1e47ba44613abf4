type 'a entry = {
  at : float;
  seq : int;
  event : 'a;
}

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable seq : int;
}

let create () = { heap = [||]; size = 0; seq = 0 }

let size t = t.size

let before a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let grow t =
  let cap = Array.length t.heap in
  if t.size >= cap then begin
    let fresh = Array.make (max 16 (2 * cap)) t.heap.(0) in
    Array.blit t.heap 0 fresh 0 t.size;
    t.heap <- fresh
  end

let schedule t ~at event =
  if Float.is_nan at || at < 0.0 then invalid_arg "Eventq.schedule: bad time";
  let entry = { at; seq = t.seq; event } in
  t.seq <- t.seq + 1;
  if t.size = 0 && Array.length t.heap = 0 then t.heap <- Array.make 16 entry;
  grow t;
  t.heap.(t.size) <- entry;
  t.size <- t.size + 1;
  (* sift up *)
  let i = ref (t.size - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    before t.heap.(!i) t.heap.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.heap.(!i) in
    t.heap.(!i) <- t.heap.(parent);
    t.heap.(parent) <- tmp;
    i := parent
  done

let next t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
        if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = t.heap.(!i) in
          t.heap.(!i) <- t.heap.(!smallest);
          t.heap.(!smallest) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end;
    Some (top.at, top.event)
  end
