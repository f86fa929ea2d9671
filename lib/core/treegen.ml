module Digraph = Blink_graph.Digraph
module Maxflow = Blink_graph.Maxflow
module Arborescence = Blink_graph.Arborescence
module Kruskal = Blink_graph.Kruskal
module Simplex = Blink_lp.Simplex
module Ilp = Blink_lp.Ilp
module Telemetry = Blink_telemetry.Telemetry
module Json = Blink_telemetry.Json

let log_src = Logs.Src.create "blink.treegen" ~doc:"Blink tree planning"

module Log = (val Logs.src_log log_src : Logs.LOG)

type tree = { edges : int list; weight : float }

type packing = {
  root : int;
  trees : tree list;
  rate : float;
  undirected : bool;
}

let tol = 1e-9

let total trees = List.fold_left (fun acc t -> acc +. t.weight) 0. trees

(* ------------------------------------------------------------------ *)
(* Duplex links: pairs of opposite directed edges of equal capacity, the
   items of the undirected model; the tree oracle is Kruskal over links. *)

type link = { fwd : int; bwd : int; lcap : float }

let undirected_links g =
  (* Pair each directed edge with an unpaired reverse of equal capacity. *)
  let unpaired : (int * int, int list) Hashtbl.t = Hashtbl.create 32 in
  let links = ref [] in
  Digraph.fold_edges
    (fun e () ->
      let fwd_key = (e.Digraph.src, e.Digraph.dst) in
      let rev_key = (e.Digraph.dst, e.Digraph.src) in
      match Hashtbl.find_opt unpaired rev_key with
      | Some (partner :: rest) ->
          Hashtbl.replace unpaired rev_key rest;
          let p = Digraph.edge g partner in
          if Float.abs (p.Digraph.cap -. e.Digraph.cap) > 1e-9 then
            invalid_arg "Treegen: asymmetric link capacities";
          links :=
            {
              fwd = min partner e.Digraph.id;
              bwd = max partner e.Digraph.id;
              lcap = e.Digraph.cap;
            }
            :: !links
      | Some [] | None ->
          let same = Option.value (Hashtbl.find_opt unpaired fwd_key) ~default:[] in
          Hashtbl.replace unpaired fwd_key (same @ [ e.Digraph.id ]))
    g ();
  Hashtbl.iter
    (fun _ pending ->
      if pending <> [] then
        invalid_arg "Treegen: graph is not symmetric (unpaired directed edge)")
    unpaired;
  Array.of_list (List.rev !links)

let link_endpoints g (l : link) =
  let e = Digraph.edge g l.fwd in
  (e.Digraph.src, e.Digraph.dst)

(* Orient a link tree away from [root]: returns directed edge ids. *)
let orient g links ~root link_ids =
  let adj = Hashtbl.create 16 in
  let push a b li =
    Hashtbl.replace adj a ((b, li) :: Option.value (Hashtbl.find_opt adj a) ~default:[])
  in
  List.iter
    (fun li ->
      let u, v = link_endpoints g links.(li) in
      push u v li;
      push v u li)
    link_ids;
  let seen = Hashtbl.create 16 in
  Hashtbl.replace seen root ();
  let queue = Queue.create () in
  Queue.add root queue;
  let edges = ref [] in
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    List.iter
      (fun (v, li) ->
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.replace seen v ();
          let l = links.(li) in
          let fwd_edge = Digraph.edge g l.fwd in
          let id = if fwd_edge.Digraph.src = u then l.fwd else l.bwd in
          edges := id :: !edges;
          Queue.add v queue
        end)
      (Option.value (Hashtbl.find_opt adj u) ~default:[])
  done;
  List.rev !edges

(* Capacity-constraint rows [(item, row, cap)], one per item used by any
   candidate, built from an inverted item -> candidate-indices table:
   near-linear in the total item count, instead of the
   O(rows * k * |items|) List.mem scan a per-cell membership test would
   cost. Rows come back sorted by item id: both LP solvers downstream
   pivot in row order, so hash-bucket order here would leak into which
   optimal vertex they land on. *)
let capacity_rows ~cap_of ~cand_items =
  let k = Array.length cand_items in
  let users : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun ci items ->
      List.iter
        (fun item ->
          let prev = Option.value (Hashtbl.find_opt users item) ~default:[] in
          Hashtbl.replace users item (ci :: prev))
        items)
    cand_items;
  Hashtbl.fold (fun item cis acc -> (item, cis) :: acc) users []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (item, cis) ->
         let row = Array.make k 0. in
         List.iter (fun ci -> row.(ci) <- 1.) cis;
         (item, row, cap_of item))

(* ------------------------------------------------------------------ *)
(* The capacity model: the one place that knows directed edges from
   duplex links. An item is the unit of capacity a packing consumes: a
   directed edge id, or a duplex-link id. Trees are always directed edge
   ids oriented away from the root. *)

type model =
  | Mdirected of {
      g : Digraph.t;
      arb : Arborescence.workspace;
      costs : float array;  (* the oracle's per-edge costs *)
    }
  | Mundirected of {
      g : Digraph.t;
      links : link array;
      link_of_edge : int array;
      kruskal : Kruskal.t;
    }

let kruskal_over g links =
  let ends = Array.map (link_endpoints g) links in
  Kruskal.create ~n:(Digraph.n_vertices g) ~src:(Array.map fst ends)
    ~dst:(Array.map snd ends)

let model g ~undirected =
  if undirected then begin
    let links = undirected_links g in
    let link_of_edge = Array.make (Digraph.n_edges g) (-1) in
    Array.iteri
      (fun li l ->
        link_of_edge.(l.fwd) <- li;
        link_of_edge.(l.bwd) <- li)
      links;
    Mundirected { g; links; link_of_edge; kruskal = kruskal_over g links }
  end
  else
    Mdirected
      {
        g;
        arb = Arborescence.workspace g;
        costs = Array.make (Digraph.n_edges g) 0.;
      }

let model_caps = function
  | Mdirected { g; _ } ->
      Array.init (Digraph.n_edges g) (fun i -> (Digraph.edge g i).Digraph.cap)
  | Mundirected { links; _ } -> Array.map (fun l -> l.lcap) links

let model_items m edges =
  match m with
  | Mdirected _ -> edges
  | Mundirected { link_of_edge; _ } ->
      List.map (fun e -> link_of_edge.(e)) edges

(* Items of the cheapest spanning structure under per-item [price]:
   Chu-Liu/Edmonds over edges, Kruskal over links. Depleted items may
   price at [infinity]; Edmonds' subtractions get a large finite cost
   instead so they stay NaN-free. *)
let depleted_price = 1e18

let model_oracle m ~root price =
  match m with
  | Mdirected { arb; costs; _ } ->
      for i = 0 to Array.length costs - 1 do
        let p = price.(i) in
        costs.(i) <- (if Float.is_finite p then p else depleted_price)
      done;
      Arborescence.solve arb ~root costs
  | Mundirected { kruskal; _ } -> Kruskal.min_tree kruskal price

let model_edges m ~root items =
  match m with
  | Mdirected _ -> items
  | Mundirected { g; links; _ } -> orient g links ~root items

let mode_label undirected = if undirected then "undirected" else "directed"

(* ------------------------------------------------------------------ *)
(* Garg-Konemann core over abstract "items" (directed edges or duplex
   links). The oracle returns a minimum-price spanning structure as an
   item list, or None when none exists. *)

let garg_konemann ?(round = fun () -> ()) ~epsilon ~caps ~oracle () =
  let m = Array.length caps in
  let delta =
    (1. +. epsilon) *. (((1. +. epsilon) *. Float.of_int m) ** (-1. /. epsilon))
  in
  let price = Array.map (fun c -> delta /. c) caps in
  let purchases : (int list, float) Hashtbl.t = Hashtbl.create 64 in
  (* The oracle returns the same item list (in the same order) for most
     consecutive iterations — prices move slowly — so memoize its sorted
     canonical form instead of re-sorting on every purchase. *)
  let canon : (int list, int list) Hashtbl.t = Hashtbl.create 64 in
  let canonical items =
    match Hashtbl.find_opt canon items with
    | Some key -> key
    | None ->
        let key = List.sort compare items in
        Hashtbl.add canon items key;
        key
  in
  let continue = ref true in
  (* Terminates in O(m ln m / eps^2) purchases; the guard is a safety net. *)
  let max_iters = 1_000_000 in
  let iters = ref 0 in
  while !continue && !iters < max_iters do
    incr iters;
    round ();
    match oracle price with
    | None -> continue := false
    | Some items ->
        let total_price =
          List.fold_left (fun acc i -> acc +. price.(i)) 0. items
        in
        if total_price >= 1. then continue := false
        else begin
          let cmin =
            List.fold_left (fun acc i -> Float.min acc caps.(i)) infinity items
          in
          let key = canonical items in
          let prev = Option.value (Hashtbl.find_opt purchases key) ~default:0. in
          Hashtbl.replace purchases key (prev +. cmin);
          List.iter
            (fun i ->
              price.(i) <- price.(i) *. (1. +. (epsilon *. cmin /. caps.(i))))
            items
        end
  done;
  let scale = Float.log (1. /. delta) /. Float.log (1. +. epsilon) in
  (* The textbook scale can leave a few percent of overload on some item;
     rescaling by the worst measured overload restores feasibility while
     keeping the (1 - O(eps)) guarantee. *)
  let load = Array.make m 0. in
  (* Accumulate in canonical key order, not hash-bucket order: float
     addition is not associative, so the measured overload — and with it
     every emitted weight — must not depend on the table's internal
     layout. *)
  Hashtbl.fold (fun items bought acc -> (items, bought) :: acc) purchases []
  |> List.sort compare
  |> List.iter (fun (items, bought) ->
         List.iter (fun i -> load.(i) <- load.(i) +. (bought /. scale)) items);
  let overload = ref 1. in
  for i = 0 to m - 1 do
    let ratio = load.(i) /. caps.(i) in
    if ratio > !overload then overload := ratio
  done;
  Hashtbl.fold
    (fun items bought acc ->
      let weight = bought /. scale /. !overload in
      if weight > tol then (items, weight) :: acc else acc)
    purchases []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* MWU packing *)

(* MWU instrumentation: a round counter fed from inside the
   Garg-Konemann loop, then a span + summary gauges. *)
let mwu_telemetry telemetry ~undirected =
  let mode = mode_label undirected in
  let labels = [ ("mode", mode) ] in
  (* Wall clock, not [now_s]: the phase timer must tick in metrics-only
     mode so [plan.replan_s] decomposes without tracing enabled. *)
  let w0 = Telemetry.wall_s telemetry in
  let round () = Telemetry.incr telemetry ~labels "treegen.mwu.rounds" in
  let finish ~start packing =
    if Telemetry.enabled telemetry then begin
      Telemetry.observe telemetry ~labels "plan.phase.mwu_s"
        (Telemetry.wall_s telemetry -. w0);
      Telemetry.set_gauge telemetry ~labels "treegen.mwu.trees"
        (Float.of_int (List.length packing.trees));
      Telemetry.span telemetry ~cat:"treegen" ~start
        ~args:
          [
            ("mode", Json.str mode);
            ("trees", Json.int (List.length packing.trees));
            ("rate_gbps", Json.float packing.rate);
          ]
        "treegen.pack"
    end;
    packing
  in
  (round, finish)

(* Garg-Konemann over [caps], trees oriented away from [root]. *)
let mwu m ~round ~epsilon ~caps ~root =
  garg_konemann ~round ~epsilon ~caps ~oracle:(model_oracle m ~root) ()

let mwu_trees m ~root raw =
  List.map
    (fun (items, weight) -> { edges = model_edges m ~root items; weight })
    raw

(* Single-vertex or cut-off-from-root fabrics pack nothing. *)
let spans g ~root =
  Digraph.n_vertices g > 1 && Digraph.is_connected_from g ~root

let pack ?(epsilon = 0.1) ?(telemetry = Telemetry.disabled) g ~root
    ~undirected =
  let round, finish = mwu_telemetry telemetry ~undirected in
  let start = Telemetry.now_s telemetry in
  if not (spans g ~root) then
    finish ~start { root; trees = []; rate = 0.; undirected }
  else begin
    let m = model g ~undirected in
    let raw = mwu m ~round ~epsilon ~caps:(model_caps m) ~root in
    let trees = mwu_trees m ~root raw in
    let rate = total trees in
    Log.debug (fun f ->
        f "MWU (%s): %d trees, rate %.2f" (mode_label undirected)
          (List.length trees) rate);
    finish ~start { root; trees; rate; undirected }
  end

(* ------------------------------------------------------------------ *)
(* Column generation: the exact fractional optimum of the capacity model.
   The master LP's optimal duals price the items; a cheapest tree pricing
   below 1 would raise the master's objective, so it joins the master.
   When none does, the duals are feasible over every tree. After any
   round the duals scaled by the cheapest price are feasible, so
   [objective / min(1, cheapest price)] bounds the optimum (Farley). *)

(* The master LP over [columns] (item lists) under per-item [caps]: the
   objective, a weight per column and a price per item (0 where unused). *)
let master ~caps columns =
  let rows =
    capacity_rows ~cap_of:(fun item -> caps.(item)) ~cand_items:columns
  in
  let a = Array.of_list (List.map (fun (_, row, _) -> row) rows) in
  let b = Array.of_list (List.map (fun (_, _, cap) -> cap) rows) in
  match Simplex.maximize ~c:(Array.make (Array.length columns) 1.) ~a ~b with
  | Simplex.Optimal { objective; solution; duals } ->
      let price = Array.make (Array.length caps) 0. in
      List.iteri (fun r (item, _, _) -> price.(item) <- duals.(r)) rows;
      (objective, solution, price)
  | Simplex.Infeasible | Simplex.Unbounded ->
      (* 0 is always feasible and capacities bound the objective. *)
      assert false

(* Column generation converges far below this cap on every fabric
   planned (DGX class: under 40 rounds); it only bounds degenerate
   inputs, and a capped run still returns its Farley bound. *)
let max_rounds = 256

let column_generation g ~root ~undirected =
  if not (spans g ~root) then ({ root; trees = []; rate = 0.; undirected }, 0.)
  else begin
    let m = model g ~undirected in
    let caps = model_caps m in
    (* The graph spans from [root], so the oracle always finds a tree. *)
    let cheapest price = Option.get (model_oracle m ~root price) in
    let seen = Hashtbl.create 64 in
    let rec loop rounds columns items bound =
      Hashtbl.replace seen (List.sort compare items) ();
      let columns = columns @ [ items ] in
      let objective, weights, price = master ~caps (Array.of_list columns) in
      let items = cheapest price in
      let cost = List.fold_left (fun acc i -> acc +. price.(i)) 0. items in
      let bound =
        if cost > 0. then Float.min bound (objective /. Float.min 1. cost)
        else bound
      in
      if cost < 1. -. tol && rounds < max_rounds
         && not (Hashtbl.mem seen (List.sort compare items))
      then loop (rounds + 1) columns items bound
      else (columns, weights, bound)
    in
    (* Seed: the widest tree, priced by inverse capacity. *)
    let columns, weights, bound =
      loop 1 [] (cheapest (Array.map (fun c -> 1. /. c) caps)) infinity
    in
    let tree i items =
      { edges = model_edges m ~root items; weight = weights.(i) }
    in
    let trees = List.mapi tree columns in
    Log.debug (fun f ->
        f "CG (%s): %d columns, master %.3f, bound %.3f"
          (mode_label undirected) (List.length columns) (total trees) bound);
    ({ root; trees; rate = total trees; undirected }, bound)
  end

let optimum g ~root ~undirected =
  if not (spans g ~root) then 0.
  else if undirected then snd (column_generation g ~root ~undirected)
  else Maxflow.broadcast_rate g ~root

(* ------------------------------------------------------------------ *)
(* Greedy integral extraction: repeatedly pull a spanning tree out of the
   unit-normalized residual capacities, preferring well-provisioned items.
   MWU's candidate set occasionally misses an integral packing that exists
   (its trees were shaped by prices, not integrality); these candidates
   give the ILP that option. *)

let greedy_integral m ~root ~unit =
  let found = ref [] in
  (match m with
  | Mundirected { g; links; kruskal; _ } ->
      let residual = Array.map (fun l -> l.lcap /. unit) links in
      let continue = ref true in
      while !continue do
        let price =
          Array.map
            (fun r -> if r < 0.999 then depleted_price else 1. -. (1e-6 *. r))
            residual
        in
        match Kruskal.min_tree kruskal price with
        | Some link_ids
          when List.for_all (fun li -> residual.(li) >= 0.999) link_ids ->
            List.iter (fun li -> residual.(li) <- residual.(li) -. 1.) link_ids;
            found := orient g links ~root link_ids :: !found
        | Some _ | None -> continue := false
      done
  | Mdirected { g; _ } ->
      (* Exact integral arborescence packing by Edmonds' constructive proof
         (Schrijver's safe-edge formulation): while building tree t of k,
         grow the covered set S one edge at a time, picking any frontier
         edge whose removal keeps every uncovered vertex (k - t)-connected
         from the root in the residual. Such an edge always exists while the
         invariant holds, and k = the integral min cut, so this extracts the
         full optimal packing. Capacities must be (near-)integer multiples
         of [unit]; otherwise we return nothing and the ILP works from the
         MWU candidates alone. *)
      let m = Digraph.n_edges g in
      let n = Digraph.n_vertices g in
      let residual = Array.make m 0 in
      let integral = ref true in
      for i = 0 to m - 1 do
        let units = (Digraph.edge g i).Digraph.cap /. unit in
        if Float.abs (units -. Float.round units) > 1e-6 then integral := false;
        residual.(i) <- int_of_float (Float.round units)
      done;
      if !integral then begin
        let residual_graph () =
          let rg = Digraph.create ~n in
          for i = 0 to m - 1 do
            if residual.(i) > 0 then begin
              let e = Digraph.edge g i in
              ignore
                (Digraph.add_edge rg ~src:e.Digraph.src ~dst:e.Digraph.dst
                   ~cap:(Float.of_int residual.(i)))
            end
          done;
          rg
        in
        (* Lovász's invariant checks EVERY vertex, covered or not: removing a
           frontier edge may drop connectivity to a vertex already inside S,
           and the remaining trees still have to span it. *)
        let connectivity_at_least need =
          need <= 0
          ||
          let rg = residual_graph () in
          let ok = ref true in
          for w = 0 to n - 1 do
            if w <> root && !ok then
              if Maxflow.max_flow rg ~src:root ~dst:w < Float.of_int need -. 1e-6
              then ok := false
          done;
          !ok
        in
        let k =
          let rg = residual_graph () in
          let rate = ref infinity in
          for w = 0 to n - 1 do
            if w <> root then rate := Float.min !rate (Maxflow.max_flow rg ~src:root ~dst:w)
          done;
          if !rate = infinity then 0 else int_of_float (Float.floor (!rate +. 1e-6))
        in
        let failed = ref false in
        for t = k downto 1 do
          if not !failed then begin
            let in_s = Array.make n false in
            in_s.(root) <- true;
            let covered = ref 1 in
            let tree = ref [] in
            while !covered < n && not !failed do
              (* Try every frontier edge until one is safe. *)
              let accepted = ref false in
              let i = ref 0 in
              while (not !accepted) && !i < m do
                let e = Digraph.edge g !i in
                if residual.(!i) > 0 && in_s.(e.Digraph.src) && not in_s.(e.Digraph.dst)
                then begin
                  residual.(!i) <- residual.(!i) - 1;
                  if connectivity_at_least (t - 1) then begin
                    accepted := true;
                    in_s.(e.Digraph.dst) <- true;
                    incr covered;
                    tree := !i :: !tree
                  end
                  else residual.(!i) <- residual.(!i) + 1
                end;
                incr i
              done;
              if not !accepted then failed := true
            done;
            if not !failed then found := List.rev !tree :: !found
          end
        done
      end);
  !found

(* ------------------------------------------------------------------ *)
(* ILP tree minimization, generic over the packing's capacity model. *)

(* The smallest passing relaxation count. [attempt n] is memoized, so no
   count runs twice, and every count is judged by the same run the scan
   would make. Bisection is exact only while passing is monotone in [n],
   which holds when every attempt finished; after any attempt that did
   not, the scan over [0, ks] decides, reusing what ran. *)
let first_passing ~ks attempt =
  let memo = Hashtbl.create 8 in
  let complete = ref true in
  let run n =
    match Hashtbl.find_opt memo n with
    | Some found -> found
    | None ->
        let found, finished = attempt n in
        if not finished then complete := false;
        Hashtbl.add memo n found;
        found
  in
  let rec scan n =
    match run n with
    | Some s -> Some (n, s)
    | None -> if n >= ks then None else scan (n + 1)
  in
  (* [lo] fails; [hi] passes, or is [ks] and has not run yet. *)
  let rec bisect lo hi =
    if hi - lo <= 1 then hi
    else
      let mid = lo + ((hi - lo) / 2) in
      if Option.is_some (run mid) then bisect lo mid else bisect mid hi
  in
  match run 0 with
  | Some s -> Some (0, s)
  | None when ks <= 0 -> None
  | None ->
      let n = bisect 0 ks in
      let found = run n in
      if !complete then Option.map (fun s -> (n, s)) found else scan 0

type search = { attempts : int; node_limit_hits : int }

let no_search = { attempts = 0; node_limit_hits = 0 }

(* Slack on the all-integer bound below. The bound is exact in
   arithmetic; the slack covers the ILP's per-column integrality
   tolerance (1e-6) summed over the support, and simplex rounding. The
   bound's margin on real fabrics is a quarter of a unit or more. *)
let integral_slack = 1e-3

let minimize ?(threshold = 0.05) ?(warm_start = []) g packing =
  if packing.trees = [] then (packing, no_search)
  else begin
    let m = model g ~undirected:packing.undirected in
    let item_caps = model_caps m in
    let unit = Array.fold_left Float.min infinity item_caps in
    let n_mwu = List.length packing.trees in
    let candidates =
      let greedy =
        greedy_integral m ~root:packing.root ~unit
        |> List.map (fun edges -> { edges; weight = 0. })
      in
      let seen = Hashtbl.create 32 in
      List.filter
        (fun t ->
          let key = List.sort compare t.edges in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        (packing.trees @ greedy)
      |> Array.of_list
    in
    let is_greedy i = i >= n_mwu in
    let cand_items = Array.map (fun t -> model_items m t.edges) candidates in
    let k = Array.length candidates in
    (* Warm-start bookkeeping: match the surviving trees of a previous
       integral solution to candidate columns by edge set. Their columns
       are forced into the ILP support and their weights seed the
       branch-and-bound incumbent — an empty [warm_start] leaves the
       search byte-identical to a cold minimize. *)
    let warm_weight : (int list, float) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun t -> Hashtbl.replace warm_weight (List.sort compare t.edges) t.weight)
      warm_start;
    let warm_of_cand =
      Array.map
        (fun t -> Hashtbl.find_opt warm_weight (List.sort compare t.edges))
        candidates
    in
    let is_warm i = warm_of_cand.(i) <> None in
    (* Constraint rows per used item, capacities in units. *)
    (* Re-sorted by row content (not item id): the ILP's branching order
       follows row order, and this is the ordering its tuning and the
       timing-sensitive tests were validated against. *)
    let rows =
      capacity_rows ~cap_of:(fun item -> item_caps.(item) /. unit) ~cand_items
      |> List.map (fun (_, row, cap) -> (row, cap))
      |> List.sort compare
    in
    let a = Array.of_list (List.map fst rows) in
    let b = Array.of_list (List.map snd rows) in
    let c = Array.make k 1. in
    let upper =
      Array.map
        (fun items ->
          List.fold_left
            (fun acc i -> Float.min acc (item_caps.(i) /. unit))
            infinity items)
        cand_items
    in
    match Simplex.maximize ~c ~a ~b with
    | Simplex.Infeasible | Simplex.Unbounded ->
        (packing, no_search) (* unreachable *)
    | Simplex.Optimal { objective = lp_opt; solution = lp_sol; _ } ->
        (* The simplex solution is basic: restricting the ILP to its
           support keeps branch-and-bound tiny without losing the LP
           optimum. The integral candidates from the greedy/Edmonds
           extraction are kept regardless — they are exactly the columns
           the ILP needs for an integral optimum. *)
        let support =
          List.filter
            (fun i -> lp_sol.(i) > 1e-7 || is_greedy i || is_warm i)
            (List.init k Fun.id)
          |> Array.of_list
        in
        let ks = Array.length support in
        let sub arr = Array.map (fun i -> arr.(i)) support in
        let a' = Array.map sub a in
        let problem integer =
          { Ilp.c = sub c; a = a'; b; upper = sub upper; integer }
        in
        (* The surviving trees, expressed in support coordinates and
           capacity units, are a feasible integral point (their loads and
           bounds were feasible before the fault on items the fault did
           not touch); [Ilp.solve] verifies and discards it otherwise
           (e.g. when the capacity unit changed under a degradation). *)
        let warm_vec =
          if warm_start = [] then None
          else
            Some
              (Array.map
                 (fun i ->
                   match warm_of_cand.(i) with
                   | Some w -> w /. unit
                   | None -> 0.)
                 support)
        in
        (* Relaxation order: most fractional LP weight first. *)
        let order =
          List.init ks Fun.id
          |> List.sort (fun i j ->
                 let frac x = Float.abs (x -. Float.round x) in
                 compare
                   (frac lp_sol.(support.(j)))
                   (frac lp_sol.(support.(i))))
          |> Array.of_list
        in
        let target = (1. -. threshold) *. lp_opt in
        (* Every objective weight is 1, so an all-integer solution is
           worth a whole number of units, at most the LP's: when
           [floor lp_opt] misses the target, [attempt 0] cannot pass. *)
        let integral_fails =
          Float.floor (lp_opt +. integral_slack) +. integral_slack +. tol
          < target
        in
        let attempts = ref 0 in
        let node_limit_hits = ref 0 in
        (* [attempt n] relaxes the [n] most fractional columns and runs a
           full branch-and-bound. Relaxing more columns only enlarges the
           feasible set, so passing is monotone in [n] as long as B&B
           finishes; [Ilp.solve] says when its node limit stopped it. *)
        let attempt n_frac =
          if n_frac = 0 && integral_fails then (None, true)
          else begin
            incr attempts;
            let hits = !node_limit_hits in
            let integer = Array.make ks true in
            for idx = 0 to n_frac - 1 do
              integer.(order.(idx)) <- false
            done;
            let found =
              match
                Ilp.solve ~max_nodes:20_000 ?warm_start:warm_vec
                  ~on_node_limit:(fun () -> incr node_limit_hits)
                  (problem integer)
              with
              | Some { Ilp.objective; solution } when objective +. tol >= target
                ->
                  Some solution
              | _ -> None
            in
            (found, !node_limit_hits = hits)
          end
        in
        let found = first_passing ~ks attempt in
        let search =
          { attempts = !attempts; node_limit_hits = !node_limit_hits }
        in
        (match found with
        | None ->
            (* fully relaxed ILP equals the LP; unreachable *)
            (packing, search)
        | Some (_, solution) ->
            let trees =
              let out = ref [] in
              Array.iteri
                (fun i orig ->
                  if solution.(i) > 1e-7 then
                    out :=
                      {
                        edges = candidates.(orig).edges;
                        weight = solution.(i) *. unit;
                      }
                      :: !out)
                support;
              List.rev !out
            in
            let rate = total trees in
            Log.debug (fun m ->
                m "ILP: %d -> %d trees, rate %.2f (candidate LP optimum %.2f)"
                  (List.length packing.trees) (List.length trees) rate
                  (lp_opt *. unit));
            ({ packing with trees; rate }, search))
  end

(* Non-recursive rebinding: wrap the ILP step in telemetry (span, removed
   tree count, search counters, final rate/tree gauges) without touching
   its internals. *)
let minimize ?threshold ?warm_start ?(telemetry = Telemetry.disabled) g packing =
  let start = Telemetry.now_s telemetry in
  let w0 = Telemetry.wall_s telemetry in
  let result, search = minimize ?threshold ?warm_start g packing in
  if Telemetry.enabled telemetry then begin
    let mode = mode_label packing.undirected in
    let labels = [ ("mode", mode) ] in
    Telemetry.observe telemetry ~labels "plan.phase.ilp_s"
      (Telemetry.wall_s telemetry -. w0);
    Telemetry.incr telemetry ~labels ~by:search.attempts "treegen.ilp.attempts";
    Telemetry.incr telemetry ~labels ~by:search.node_limit_hits
      "treegen.ilp.node_limit_hits";
    let before = List.length packing.trees in
    let after = List.length result.trees in
    Telemetry.incr telemetry ~labels
      ~by:(max 0 (before - after))
      "treegen.ilp.trees_removed";
    Telemetry.set_gauge telemetry ~labels "treegen.trees" (Float.of_int after);
    Telemetry.set_gauge telemetry ~labels "treegen.rate_gbps" result.rate;
    Telemetry.span telemetry ~cat:"treegen" ~start
      ~args:
        [
          ("mode", Json.str mode);
          ("trees_in", Json.int before);
          ("trees_out", Json.int after);
          ("rate_gbps", Json.float result.rate);
        ]
      "treegen.ilp"
  end;
  result

let plan ?epsilon ?threshold ?telemetry g ~root ~undirected =
  pack ?epsilon ?telemetry g ~root ~undirected
  |> minimize ?threshold ?telemetry g

(* ------------------------------------------------------------------ *)
(* Incremental replanning: keep the previous packing's surviving trees,
   re-pack only the displaced flow over residual capacities, and hand the
   survivors to the ILP as a warm start. *)

type replan_stats = {
  kept_trees : int;
  displaced_trees : int;
  cold_fallback : bool;
}

(* Map each edge of [prev_graph] onto [g] by (src, dst, occurrence index):
   both graphs come from the same deterministic fabric walk
   ([Server.nvlink_digraph] emits surviving pairs in nvlink-list order),
   so the k-th parallel (src, dst) edge denotes the same physical link
   before and after the fault. An edge maps only when the surviving
   capacity is unchanged (within [tol]); a removed or degraded link
   leaves [-1] and displaces every tree routing over it. *)
let edge_remap ~prev_graph g =
  let new_ids : (int * int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let counts : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let occurrence tbl key =
    let k = Option.value (Hashtbl.find_opt tbl key) ~default:0 in
    Hashtbl.replace tbl key (k + 1);
    k
  in
  Digraph.fold_edges
    (fun e () ->
      let key = (e.Digraph.src, e.Digraph.dst) in
      Hashtbl.replace new_ids
        (e.Digraph.src, e.Digraph.dst, occurrence counts key)
        e.Digraph.id)
    g ();
  Hashtbl.reset counts;
  let map = Array.make (Digraph.n_edges prev_graph) (-1) in
  Digraph.fold_edges
    (fun e () ->
      let key = (e.Digraph.src, e.Digraph.dst) in
      match
        Hashtbl.find_opt new_ids
          (e.Digraph.src, e.Digraph.dst, occurrence counts key)
      with
      | Some id
        when Float.abs ((Digraph.edge g id).Digraph.cap -. e.Digraph.cap)
             <= tol ->
          map.(e.Digraph.id) <- id
      | Some _ | None -> ())
    prev_graph ();
  map

let replan ?(epsilon = 0.1) ?threshold ?(telemetry = Telemetry.disabled) ~prev
    ~prev_graph g ~root =
  let undirected = prev.undirected in
  let cold () =
    ( plan ~epsilon ?threshold ~telemetry g ~root ~undirected,
      {
        kept_trees = 0;
        displaced_trees = List.length prev.trees;
        cold_fallback = true;
      } )
  in
  if root <> prev.root || prev.trees = [] then cold ()
  else begin
    let map = edge_remap ~prev_graph g in
    let remap t =
      let ok = ref true in
      let edges =
        List.map
          (fun e ->
            let id = map.(e) in
            if id < 0 then ok := false;
            id)
          t.edges
      in
      if !ok then Either.Left { t with edges } else Either.Right t
    in
    let kept, displaced = List.partition_map remap prev.trees in
    if kept = [] then
      (* Every tree was displaced: the residual repack below would see
         full capacities — exactly a cold pack, so run one (identical
         inputs, identical result). *)
      cold ()
    else begin
      let m = model g ~undirected in
      let kept_items = List.map (fun t -> model_items m t.edges) kept in
      let stats =
        {
          kept_trees = List.length kept;
          displaced_trees = List.length displaced;
          cold_fallback = false;
        }
      in
      if displaced = [] then
        (* No surviving tree routes over the affected link: the packing
           is still feasible verbatim and MWU/ILP are skipped entirely. *)
        ({ root; trees = kept; rate = total kept; undirected }, stats)
      else begin
        (* Residual repack: MWU over what the kept trees leave free.
           Depleted items price at [infinity]; any oracle tree forced
           onto one prices above 1 and terminates the loop, so zero
           residual capacity is never purchased. *)
        let round, finish = mwu_telemetry telemetry ~undirected in
        let start = Telemetry.now_s telemetry in
        let caps = model_caps m in
        List.iter2
          (fun t items ->
            List.iter (fun i -> caps.(i) <- caps.(i) -. t.weight) items)
          kept kept_items;
        Array.iteri (fun i c -> if c < tol then caps.(i) <- 0.) caps;
        let raw = mwu m ~round ~epsilon ~caps ~root in
        let trees = kept @ mwu_trees m ~root raw in
        let packing =
          finish ~start { root; trees; rate = total trees; undirected }
        in
        (minimize ?threshold ~warm_start:kept ~telemetry g packing, stats)
      end
    end
  end

let best_root g =
  let n = Digraph.n_vertices g in
  let best = ref 0 and best_rate = ref neg_infinity in
  for r = 0 to n - 1 do
    let rate = Maxflow.broadcast_rate g ~root:r in
    if rate > !best_rate +. tol then begin
      best := r;
      best_rate := rate
    end
  done;
  !best

let feasible g packing =
  let m = model g ~undirected:packing.undirected in
  let caps = model_caps m in
  let load = Array.make (Array.length caps) 0. in
  List.iter
    (fun t ->
      List.iter
        (fun i -> load.(i) <- load.(i) +. t.weight)
        (model_items m t.edges))
    packing.trees;
  List.for_all
    (fun t ->
      t.weight > 0.
      && Arborescence.is_arborescence g ~root:packing.root t.edges)
    packing.trees
  && Array.for_all2 (fun x c -> x <= c +. 1e-6) load caps

let pp ppf p =
  Format.fprintf ppf "@[<v>packing root=%d rate=%.3f (%d trees%s)" p.root
    p.rate (List.length p.trees)
    (if p.undirected then ", undirected" else "");
  List.iter
    (fun t ->
      Format.fprintf ppf "@,  w=%.3f edges=[%s]" t.weight
        (String.concat ";" (List.map string_of_int t.edges)))
    p.trees;
  Format.fprintf ppf "@]"
