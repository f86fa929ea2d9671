(* Chu-Liu/Edmonds by cycle contraction, over arrays. Each level holds a
   working edge list (the caller's edges at level 0, in decreasing id
   order); contracting a cycle of level l builds level l + 1's list from
   level l's, in order, and records for every edge whether and where it
   enters the cycle. The search descends until the cheapest in-edges are
   acyclic, then climbs back, breaking each level's cycle at the vertex
   the chosen edge into the contracted vertex enters.

   Every decision follows the list order of the recursive formulation
   this replaced: the cheapest in-edge is the first of the minimum cost
   in list order, the cycle is the first one the parent walk meets from
   vertices 0, 1, ..., and the result lists each level's cycle edges
   (in walk order, entry vertex skipped) before the deeper levels', the
   acyclic level's in-edges by decreasing vertex. So the edge set, and
   its order, are the reference's for the same costs.

   Two edge buffers alternate between levels; only the per-level cycle
   and entry tables ([levels] deep, at most n - 1) persist for the climb
   back. A call allocates only its result list. *)

type workspace = {
  n : int;
  m : int;
  gsrc : int array;  (* the graph's edges, by id *)
  gdst : int array;
  (* Two working edge lists, used alternately by successive levels. *)
  src : int array array;
  dst : int array array;
  orig : int array array;
  cost : float array array;
  inc : int array;  (* per vertex: index of its cheapest in-edge, or -1 *)
  color : int array;  (* 0 unvisited, 1 on the current path, 2 done *)
  path : int array;
  mutable path_len : int;  (* of the last [walk] *)
  in_cycle : bool array;
  relabel : int array;
  (* Per level l, for the climb back: the cycle's in-edges (orig ids) and
     the vertices they enter, in walk order, at [l * n ..]; the cycle
     length; and, at [l * m + orig], the level-l vertex an edge enters
     the cycle at, or -1. *)
  cyc_edge : int array;
  cyc_vertex : int array;
  cyc_len : int array;
  enters : int array;
  out : int array;  (* the answer, filled from the back *)
}

let workspace g =
  let n = Digraph.n_vertices g and m = Digraph.n_edges g in
  let levels = max 1 (n - 1) in
  let gsrc = Array.make m 0 and gdst = Array.make m 0 in
  Digraph.fold_edges
    (fun e () ->
      gsrc.(e.Digraph.id) <- e.Digraph.src;
      gdst.(e.Digraph.id) <- e.Digraph.dst)
    g ();
  let buf () = [| Array.make m 0; Array.make m 0 |] in
  {
    n;
    m;
    gsrc;
    gdst;
    src = buf ();
    dst = buf ();
    orig = buf ();
    cost = [| Array.make m 0.; Array.make m 0. |];
    inc = Array.make n (-1);
    color = Array.make n 0;
    path = Array.make n 0;
    path_len = 0;
    in_cycle = Array.make n false;
    relabel = Array.make n 0;
    cyc_edge = Array.make (levels * n) 0;
    cyc_vertex = Array.make (levels * n) 0;
    cyc_len = Array.make levels 0;
    enters = Array.make (levels * m) (-1);
    out = Array.make (max 0 (n - 1)) 0;
  }

(* Walk parents from [v] into [w.path] (length [w.path_len]) until a
   visited vertex. Returns the index in the path of the first cycle
   vertex when the walk closed a cycle, or -1. Marks the walked vertices
   done either way. *)
let walk w ~src ~v =
  let color = w.color and path = w.path in
  let len = ref 0 and u = ref v in
  while color.(!u) = 0 do
    color.(!u) <- 1;
    path.(!len) <- !u;
    incr len;
    u := src.(w.inc.(!u))
  done;
  let start = ref (-1) in
  if color.(!u) = 1 then begin
    let k = ref 0 in
    while path.(!k) <> !u do
      incr k
    done;
    start := !k
  end;
  for k = 0 to !len - 1 do
    color.(path.(k)) <- 2
  done;
  w.path_len <- !len;
  !start

(* Solve from level [level] (vertex count [nv], root [root], [ne] edges in
   buffer [level land 1]). Fills [w.out.(0 .. pos - 1)] from the back and
   returns the new start, or -1 when some vertex has no in-edge. *)
let rec descend w ~level ~nv ~root ~ne ~pos =
  if nv <= 1 then pos
  else begin
    let b = level land 1 in
    let src = w.src.(b) and dst = w.dst.(b) and orig = w.orig.(b)
    and cost = w.cost.(b) in
    let inc = w.inc in
    Array.fill inc 0 nv (-1);
    for p = 0 to ne - 1 do
      let d = dst.(p) in
      if d <> root && src.(p) <> d then begin
        let best = inc.(d) in
        if best < 0 || cost.(p) < cost.(best) then inc.(d) <- p
      end
    done;
    let missing = ref false in
    for v = 0 to nv - 1 do
      if v <> root && inc.(v) < 0 then missing := true
    done;
    if !missing then -1
    else begin
      Array.fill w.color 0 nv 0;
      w.color.(root) <- 2;
      let start = ref (-1) and v = ref 0 in
      while !start < 0 && !v < nv do
        if w.color.(!v) = 0 then start := walk w ~src ~v:!v;
        incr v
      done;
      if !start < 0 then begin
        (* Acyclic: the chosen in-edges, by decreasing vertex. *)
        let pos = ref pos in
        for u = 0 to nv - 1 do
          if u <> root then begin
            decr pos;
            w.out.(!pos) <- orig.(inc.(u))
          end
        done;
        !pos
      end
      else contract w ~level ~nv ~root ~ne ~pos ~start:!start
    end
  end

(* Contract the cycle [w.path.(start .. w.path_len - 1)] of [level] into
   vertex 0 of the next level, solve that, and expand the cycle. *)
and contract w ~level ~nv ~root ~ne ~pos ~start =
  let n = w.n and m = w.m in
  let b = level land 1 in
  let src = w.src.(b) and dst = w.dst.(b) and orig = w.orig.(b)
  and cost = w.cost.(b) in
  let nb = 1 - b in
  let src' = w.src.(nb) and dst' = w.dst.(nb) and orig' = w.orig.(nb)
  and cost' = w.cost.(nb) in
  let in_cycle = w.in_cycle and relabel = w.relabel in
  Array.fill in_cycle 0 nv false;
  let clen = w.path_len - start in
  for k = 0 to clen - 1 do
    let u = w.path.(start + k) in
    in_cycle.(u) <- true;
    w.cyc_vertex.((level * n) + k) <- u;
    w.cyc_edge.((level * n) + k) <- orig.(w.inc.(u))
  done;
  w.cyc_len.(level) <- clen;
  let next = ref 1 in
  for u = 0 to nv - 1 do
    if in_cycle.(u) then relabel.(u) <- 0
    else begin
      relabel.(u) <- !next;
      incr next
    end
  done;
  let base = level * m in
  let ne' = ref 0 in
  for p = 0 to ne - 1 do
    let s = src.(p) and d = dst.(p) and o = orig.(p) in
    let su = in_cycle.(s) and dv = in_cycle.(d) in
    if su && dv then w.enters.(base + o) <- -1
    else begin
      let q = !ne' in
      orig'.(q) <- o;
      src'.(q) <- relabel.(s);
      if dv then begin
        w.enters.(base + o) <- d;
        dst'.(q) <- 0;
        cost'.(q) <- cost.(p) -. cost.(w.inc.(d))
      end
      else begin
        w.enters.(base + o) <- -1;
        dst'.(q) <- relabel.(d);
        cost'.(q) <- cost.(p)
      end;
      incr ne'
    end
  done;
  let pos =
    descend w ~level:(level + 1) ~nv:!next ~root:relabel.(root) ~ne:!ne' ~pos
  in
  if pos < 0 then -1
  else begin
    (* Exactly one chosen edge enters the contracted vertex; every cycle
       in-edge but the one into the vertex it enters joins the answer. *)
    let entry = ref (-1) in
    for k = pos to Array.length w.out - 1 do
      let v = w.enters.(base + w.out.(k)) in
      if v >= 0 then entry := v
    done;
    assert (!entry >= 0);
    let pos = ref pos in
    for k = w.cyc_len.(level) - 1 downto 0 do
      if w.cyc_vertex.((level * n) + k) <> !entry then begin
        decr pos;
        w.out.(!pos) <- w.cyc_edge.((level * n) + k)
      end
    done;
    !pos
  end

let solve w ~root costs =
  if root < 0 || root >= w.n then invalid_arg "Arborescence: root out of range";
  if Array.length costs <> w.m then
    invalid_arg "Arborescence.solve: one cost per edge";
  (* Level 0 lists the graph's edges by decreasing id. *)
  let m = w.m in
  let src = w.src.(0) and dst = w.dst.(0) and orig = w.orig.(0)
  and cost = w.cost.(0) in
  for p = 0 to m - 1 do
    let id = m - 1 - p in
    src.(p) <- w.gsrc.(id);
    dst.(p) <- w.gdst.(id);
    orig.(p) <- id;
    cost.(p) <- costs.(id)
  done;
  let len = Array.length w.out in
  let pos = descend w ~level:0 ~nv:w.n ~root ~ne:m ~pos:len in
  if pos < 0 then None
  else begin
    let ids = ref [] in
    for k = len - 1 downto pos do
      ids := w.out.(k) :: !ids
    done;
    Some !ids
  end

let min_arborescence g ~root ~cost =
  let n = Digraph.n_vertices g in
  if root < 0 || root >= n then invalid_arg "Arborescence: root out of range";
  let costs =
    Array.init (Digraph.n_edges g) (fun id -> cost (Digraph.edge g id))
  in
  solve (workspace g) ~root costs

let is_arborescence g ~root ids =
  let n = Digraph.n_vertices g in
  let indeg = Array.make n 0 in
  let ok = ref (List.length ids = n - 1) in
  List.iter
    (fun id ->
      let e = Digraph.edge g id in
      indeg.(e.Digraph.dst) <- indeg.(e.Digraph.dst) + 1)
    ids;
  if indeg.(root) <> 0 then ok := false;
  for v = 0 to n - 1 do
    if v <> root && indeg.(v) <> 1 then ok := false
  done;
  if !ok then begin
    (* In-degree profile is right; connectivity from the root seals it. *)
    let sub = Digraph.create ~n in
    List.iter
      (fun id ->
        let e = Digraph.edge g id in
        ignore (Digraph.add_edge sub ~src:e.Digraph.src ~dst:e.Digraph.dst ~cap:1.))
      ids;
    ok := Digraph.is_connected_from sub ~root
  end;
  !ok

let tree_cost g ~cost ids =
  List.fold_left (fun acc id -> acc +. cost (Digraph.edge g id)) 0. ids

let depth g ~root ids =
  if not (is_arborescence g ~root ids) then
    invalid_arg "Arborescence.depth: not an arborescence";
  let n = Digraph.n_vertices g in
  let children = Array.make n [] in
  List.iter
    (fun id ->
      let e = Digraph.edge g id in
      children.(e.Digraph.src) <- e.Digraph.dst :: children.(e.Digraph.src))
    ids;
  let rec go v = List.fold_left (fun d c -> max d (1 + go c)) 0 children.(v) in
  go root
