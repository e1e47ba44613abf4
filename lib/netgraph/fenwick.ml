(* tree.(i), 1-based, holds the sum over positions (i - lowbit i, i]. *)
type t = { tree : int array; top : int (* highest power of two <= n, or 0 *) }

let create n =
  if n < 0 then invalid_arg "Fenwick.create: negative size";
  let top = ref 1 in
  while !top * 2 <= n do
    top := !top * 2
  done;
  { tree = Array.make (n + 1) 0; top = (if n = 0 then 0 else !top) }

let add t i d =
  let n = Array.length t.tree - 1 in
  let i = ref (i + 1) in
  while !i <= n do
    t.tree.(!i) <- t.tree.(!i) + d;
    i := !i + (!i land - !i)
  done

let prefix t p =
  let s = ref 0 and i = ref p in
  while !i > 0 do
    s := !s + t.tree.(!i);
    i := !i - (!i land - !i)
  done;
  !s

let search a b ok =
  let n = Array.length a.tree - 1 in
  let pos = ref 0 and sa = ref 0 and sb = ref 0 and step = ref a.top in
  while !step > 0 do
    let next = !pos + !step in
    if next <= n then begin
      let sa' = !sa + a.tree.(next) and sb' = !sb + b.tree.(next) in
      if ok sa' sb' then begin
        pos := next;
        sa := sa';
        sb := sb'
      end
    end;
    step := !step lsr 1
  done;
  !pos

let select t k = search t t (fun s _ -> s <= k)
