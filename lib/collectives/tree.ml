type t = {
  root : int;
  parent : int array;
  children : int list array;
  depth : int array;
  order : int list;
}

(* Children (ascending), depths and BFS order from [root] over a parent
   array. A rank that BFS never reaches (parent [-1], or a parent chain
   that cycles) gets depth [-1]. *)
let build ~root parent =
  let n = Array.length parent in
  let children = Array.make n [] in
  for child = n - 1 downto 0 do
    let p = parent.(child) in
    if p >= 0 then children.(p) <- child :: children.(p)
  done;
  let depth = Array.make n (-1) in
  let order = ref [ root ] in
  depth.(root) <- 0;
  let queue = Queue.create () in
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    List.iter
      (fun c ->
        depth.(c) <- depth.(v) + 1;
        order := c :: !order;
        Queue.add c queue)
      children.(v)
  done;
  { root; parent; children; depth; order = List.rev !order }

let spans t = Array.for_all (fun d -> d >= 0) t.depth

let of_parents ~root parent =
  let n = Array.length parent in
  if root < 0 || root >= n || parent.(root) <> -1 then
    invalid_arg "Tree.of_parents: bad root";
  Array.iteri
    (fun child p ->
      if child <> root && (p < 0 || p >= n || p = child) then
        invalid_arg "Tree.of_parents: bad parent entry")
    parent;
  let t = build ~root parent in
  if not (spans t) then
    invalid_arg "Tree.of_parents: not spanning (cycle or disconnected)";
  t

let of_edges ~n_ranks ~root edges =
  if List.length edges <> n_ranks - 1 then
    invalid_arg "Tree.of_edges: wrong edge count";
  let parent = Array.make n_ranks (-2) in
  parent.(root) <- -1;
  List.iter
    (fun (p, c) ->
      if c < 0 || c >= n_ranks || p < 0 || p >= n_ranks then
        invalid_arg "Tree.of_edges: rank out of range";
      if c = root then invalid_arg "Tree.of_edges: edge into root";
      if parent.(c) <> -2 then invalid_arg "Tree.of_edges: duplicate child";
      parent.(c) <- p)
    edges;
  if Array.exists (fun p -> p = -2) parent then
    invalid_arg "Tree.of_edges: not spanning";
  of_parents ~root parent

let of_undirected ~n_ranks ~root edges =
  if root < 0 || root >= n_ranks then
    invalid_arg "Tree.of_undirected: root out of range";
  let adj = Array.make n_ranks [] in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n_ranks || v < 0 || v >= n_ranks then
        invalid_arg "Tree.of_undirected: rank out of range";
      if u = v then invalid_arg "Tree.of_undirected: self loop";
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    edges;
  let parent = Array.make n_ranks (-1) in
  let seen = Array.make n_ranks false in
  let reached = ref 1 in
  seen.(root) <- true;
  let queue = Queue.create () in
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    List.iter
      (fun u ->
        if not seen.(u) then begin
          seen.(u) <- true;
          parent.(u) <- v;
          incr reached;
          Queue.add u queue
        end)
      (List.sort compare adj.(v))
  done;
  if !reached <> List.length edges + 1 then
    invalid_arg "Tree.of_undirected: edges do not form a tree containing root";
  build ~root parent

let edges t =
  List.filter_map
    (fun v -> if v = t.root then None else Some (t.parent.(v), v))
    t.order

let reroot t ~root =
  if root < 0 || root >= Array.length t.depth || t.depth.(root) < 0 then
    invalid_arg "Tree.reroot: rank not a member";
  of_undirected ~n_ranks:(Array.length t.parent) ~root (edges t)

let members t = List.sort compare t.order

let path_to_root t rank =
  let rec climb v acc =
    if v = t.root then List.rev (v :: acc) else climb t.parent.(v) (v :: acc)
  in
  climb rank []

let max_depth t = Array.fold_left max 0 t.depth
let n_ranks t = Array.length t.parent

type weighted = { tree : t; share : float }

let normalize_shares trees =
  let positive = List.filter (fun (_, w) -> w > 0.) trees in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. positive in
  if total <= 0. then invalid_arg "Tree.normalize_shares: no positive weights";
  List.map (fun (tree, w) -> { tree; share = w /. total }) positive

let pp ppf t =
  Format.fprintf ppf "@[<v>tree root=%d depth=%d" t.root (max_depth t);
  Array.iteri
    (fun v cs ->
      if cs <> [] then
        Format.fprintf ppf "@,  %d -> %s" v
          (String.concat "," (List.map string_of_int cs)))
    t.children;
  Format.fprintf ppf "@]"
