(* The item order is kept sorted between calls and restored by insertion
   sort: MWU raises the prices of one tree's items per call, so only a
   few items move, and a strict total order (price, then id) makes any
   correct sort give the same permutation. The union-find is reset in
   place. *)

type t = {
  src : int array;
  dst : int array;
  order : int array;  (* item ids, sorted by the last call's prices *)
  dsu : Dsu.t;
  picked : int array;
}

let create ~n ~src ~dst =
  let k = Array.length src in
  if Array.length dst <> k then invalid_arg "Kruskal.create: length mismatch";
  let check v =
    if v < 0 || v >= n then invalid_arg "Kruskal.create: vertex out of range"
  in
  Array.iter check src;
  Array.iter check dst;
  {
    src;
    dst;
    order = Array.init k Fun.id;
    dsu = Dsu.create n;
    picked = Array.make (max 0 (n - 1)) 0;
  }

let before price a b =
  let c = Float.compare price.(a) price.(b) in
  c < 0 || (c = 0 && a < b)

let sort t price =
  let order = t.order in
  for i = 1 to Array.length order - 1 do
    let x = order.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && before price x order.(!j) do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- x
  done

let min_tree t price =
  if Array.length price <> Array.length t.order then
    invalid_arg "Kruskal.min_tree: one price per item";
  sort t price;
  Dsu.reset t.dsu;
  let picked = ref 0 and i = ref 0 in
  while Dsu.n_sets t.dsu > 1 && !i < Array.length t.order do
    let li = t.order.(!i) in
    if Dsu.union t.dsu t.src.(li) t.dst.(li) then begin
      t.picked.(!picked) <- li;
      incr picked
    end;
    incr i
  done;
  if Dsu.n_sets t.dsu <> 1 then None
  else begin
    let ids = ref [] in
    for k = !picked - 1 downto 0 do
      ids := t.picked.(k) :: !ids
    done;
    Some !ids
  end
