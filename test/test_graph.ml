module D = Blink_graph.Digraph
module Dsu = Blink_graph.Dsu
module Maxflow = Blink_graph.Maxflow
module Arb = Blink_graph.Arborescence
module Kruskal = Blink_graph.Kruskal
module Ham = Blink_graph.Hamiltonian
module Auto = Blink_graph.Automorphism

let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Digraph *)

let diamond () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3 with distinct capacities *)
  let g = D.create ~n:4 in
  let e01 = D.add_edge g ~src:0 ~dst:1 ~cap:3. in
  let _ = D.add_edge g ~src:0 ~dst:2 ~cap:2. in
  let _ = D.add_edge g ~src:1 ~dst:3 ~cap:1. in
  let _ = D.add_edge g ~src:2 ~dst:3 ~cap:2. in
  (g, e01)

let test_digraph_basics () =
  let g, e01 = diamond () in
  Alcotest.(check int) "vertices" 4 (D.n_vertices g);
  Alcotest.(check int) "edges" 4 (D.n_edges g);
  let e = D.edge g e01 in
  Alcotest.(check int) "src" 0 e.D.src;
  Alcotest.(check int) "dst" 1 e.D.dst;
  check_float "cap" 3. e.D.cap;
  Alcotest.(check int) "out degree 0" 2 (D.out_degree g 0);
  Alcotest.(check int) "in degree 3" 2 (D.in_degree g 3);
  check_float "total cap" 3. (D.total_cap g ~src:0 ~dst:1);
  Alcotest.(check bool) "find edge" true (D.find_edge g ~src:0 ~dst:2 <> None);
  Alcotest.(check bool) "no edge" true (D.find_edge g ~src:3 ~dst:0 = None)

let test_digraph_errors () =
  let g = D.create ~n:2 in
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.add_edge: self loop")
    (fun () -> ignore (D.add_edge g ~src:0 ~dst:0 ~cap:1.));
  Alcotest.check_raises "bad cap"
    (Invalid_argument "Digraph.add_edge: non-positive capacity") (fun () ->
      ignore (D.add_edge g ~src:0 ~dst:1 ~cap:0.));
  Alcotest.(check bool) "out of range" true
    (try
       ignore (D.add_edge g ~src:0 ~dst:5 ~cap:1.);
       false
     with Invalid_argument _ -> true)

let test_digraph_parallel_edges () =
  let g = D.create ~n:2 in
  let a = D.add_edge g ~src:0 ~dst:1 ~cap:1. in
  let b = D.add_edge g ~src:0 ~dst:1 ~cap:2. in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  check_float "summed" 3. (D.total_cap g ~src:0 ~dst:1)

let test_induced () =
  let g, _ = diamond () in
  let sub = D.induced g [| 0; 1; 3 |] in
  Alcotest.(check int) "sub vertices" 3 (D.n_vertices sub);
  (* edges kept: 0->1 and 1->3 (relabeled) *)
  Alcotest.(check int) "sub edges" 2 (D.n_edges sub);
  Alcotest.(check bool) "0->1 kept" true (D.find_edge sub ~src:0 ~dst:1 <> None);
  Alcotest.(check bool) "1->3 relabeled" true (D.find_edge sub ~src:1 ~dst:2 <> None);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Digraph.induced: duplicate vertex") (fun () ->
      ignore (D.induced g [| 0; 0 |]))

let test_reverse_reachable () =
  let g, _ = diamond () in
  let r = D.reverse g in
  Alcotest.(check bool) "reversed edge" true (D.find_edge r ~src:1 ~dst:0 <> None);
  let seen = D.reachable g ~from:1 in
  Alcotest.(check bool) "1 reaches 3" true seen.(3);
  Alcotest.(check bool) "1 not 2" false seen.(2);
  Alcotest.(check bool) "connected from 0" true (D.is_connected_from g ~root:0);
  Alcotest.(check bool) "not from 3" false (D.is_connected_from g ~root:3)

(* ------------------------------------------------------------------ *)
(* Dsu *)

let test_dsu () =
  let d = Dsu.create 5 in
  Alcotest.(check int) "initial sets" 5 (Dsu.n_sets d);
  Alcotest.(check bool) "union new" true (Dsu.union d 0 1);
  Alcotest.(check bool) "union again" false (Dsu.union d 1 0);
  Alcotest.(check bool) "same" true (Dsu.same d 0 1);
  Alcotest.(check bool) "not same" false (Dsu.same d 0 2);
  ignore (Dsu.union d 2 3);
  ignore (Dsu.union d 1 3);
  Alcotest.(check int) "sets after" 2 (Dsu.n_sets d);
  Alcotest.(check bool) "transitive" true (Dsu.same d 0 2)

let prop_dsu_matches_reference =
  QCheck.Test.make ~name:"dsu matches reference partition" ~count:100
    QCheck.(list (pair (int_bound 9) (int_bound 9)))
    (fun unions ->
      let d = Dsu.create 10 in
      let reference = Array.init 10 Fun.id in
      let rec ref_find x = if reference.(x) = x then x else ref_find reference.(x) in
      List.iter
        (fun (a, b) ->
          ignore (Dsu.union d a b);
          let ra = ref_find a and rb = ref_find b in
          if ra <> rb then reference.(ra) <- rb)
        unions;
      List.for_all
        (fun (a, b) -> Dsu.same d a b = (ref_find a = ref_find b))
        (List.concat_map (fun a -> List.map (fun b -> (a, b)) [ 0; 3; 7; 9 ]) [ 0; 1; 5; 9 ]))

(* ------------------------------------------------------------------ *)
(* Maxflow *)

let test_maxflow_diamond () =
  let g, _ = diamond () in
  check_float "maxflow 0->3" 3. (Maxflow.max_flow g ~src:0 ~dst:3);
  check_float "maxflow 0->1" 3. (Maxflow.max_flow g ~src:0 ~dst:1);
  check_float "unreachable" 0. (Maxflow.max_flow g ~src:3 ~dst:0);
  check_float "broadcast rate" 2. (Maxflow.broadcast_rate g ~root:0)

let test_maxflow_classic () =
  (* CLRS-style network with known max flow 23. *)
  let g = D.create ~n:6 in
  let add s t c = ignore (D.add_edge g ~src:s ~dst:t ~cap:c) in
  add 0 1 16.; add 0 2 13.; add 1 2 10.; add 2 1 4.;
  add 1 3 12.; add 3 2 9.; add 2 4 14.; add 4 3 7.;
  add 3 5 20.; add 4 5 4.;
  check_float "clrs" 23. (Maxflow.max_flow g ~src:0 ~dst:5)

let test_min_cut () =
  let g, _ = diamond () in
  let value, side = Maxflow.min_cut g ~src:0 ~dst:3 in
  check_float "cut value" 3. value;
  Alcotest.(check bool) "src on source side" true side.(0);
  Alcotest.(check bool) "dst on sink side" false side.(3);
  (* Cut capacity across the partition equals the flow value. *)
  let crossing =
    D.fold_edges
      (fun e acc ->
        if side.(e.D.src) && not side.(e.D.dst) then acc +. e.D.cap else acc)
      g 0.
  in
  check_float "crossing capacity" value crossing

let random_graph rng n density =
  let g = D.create ~n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Random.State.float rng 1. < density then
        ignore
          (D.add_edge g ~src:u ~dst:v
             ~cap:(1. +. Float.of_int (Random.State.int rng 5)))
    done
  done;
  g

(* Brute-force min cut by enumerating vertex subsets (n <= 10). *)
let brute_min_cut g ~src ~dst =
  let n = D.n_vertices g in
  let best = ref infinity in
  for mask = 0 to (1 lsl n) - 1 do
    let side v = mask land (1 lsl v) <> 0 in
    if side src && not (side dst) then begin
      let cut =
        D.fold_edges
          (fun e acc ->
            if side e.D.src && not (side e.D.dst) then acc +. e.D.cap else acc)
          g 0.
      in
      if cut < !best then best := cut
    end
  done;
  !best

let prop_maxflow_equals_brute_min_cut =
  QCheck.Test.make ~name:"maxflow = brute-force min cut" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let g = random_graph rng 6 0.45 in
      let flow = Maxflow.max_flow g ~src:0 ~dst:5 in
      Float.abs (flow -. brute_min_cut g ~src:0 ~dst:5) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Arborescence *)

(* Enumerate all spanning arborescences by brute force (tiny n). *)
let brute_min_arborescence g ~root ~cost =
  let n = D.n_vertices g in
  let in_edges =
    Array.init n (fun v -> if v = root then [ None ] else List.map Option.some (D.in_edges g v))
  in
  let best = ref None in
  let rec go v chosen =
    if v = n then begin
      let edges = List.filter_map (fun e -> e) chosen in
      let ids = List.map (fun e -> e.D.id) edges in
      if Arb.is_arborescence g ~root ids then begin
        let c = Arb.tree_cost g ~cost ids in
        match !best with
        | Some (bc, _) when bc <= c -> ()
        | _ -> best := Some (c, ids)
      end
    end
    else List.iter (fun e -> go (v + 1) (e :: chosen)) in_edges.(v)
  in
  go 0 [];
  !best

let test_arborescence_cycle_contraction () =
  (* Cheapest in-edges form a 2-cycle; algorithm must break it. *)
  let g = D.create ~n:3 in
  let e_root = D.add_edge g ~src:0 ~dst:1 ~cap:1. in
  let _ = D.add_edge g ~src:2 ~dst:1 ~cap:1. in
  let e12 = D.add_edge g ~src:1 ~dst:2 ~cap:1. in
  let cost e = if e.D.id = e_root then 10. else 1. in
  match Arb.min_arborescence g ~root:0 ~cost with
  | None -> Alcotest.fail "expected arborescence"
  | Some ids ->
      Alcotest.(check bool) "is arborescence" true (Arb.is_arborescence g ~root:0 ids);
      Alcotest.(check (list int)) "edges" [ e_root; e12 ] (List.sort compare ids);
      check_float "cost" 11. (Arb.tree_cost g ~cost ids)

let test_arborescence_none () =
  let g = D.create ~n:3 in
  let _ = D.add_edge g ~src:0 ~dst:1 ~cap:1. in
  Alcotest.(check bool) "no spanning" true
    (Arb.min_arborescence g ~root:0 ~cost:(fun _ -> 1.) = None)

let test_arborescence_depth () =
  let g = D.create ~n:4 in
  let a = D.add_edge g ~src:0 ~dst:1 ~cap:1. in
  let b = D.add_edge g ~src:1 ~dst:2 ~cap:1. in
  let c = D.add_edge g ~src:0 ~dst:3 ~cap:1. in
  Alcotest.(check int) "depth" 2 (Arb.depth g ~root:0 [ a; b; c ])

let prop_min_arborescence_optimal =
  QCheck.Test.make ~name:"chu-liu/edmonds matches brute force" ~count:80
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed + 77 |] in
      let g = random_graph rng 5 0.5 in
      let costs =
        Array.init (D.n_edges g) (fun _ -> Float.of_int (Random.State.int rng 20))
      in
      let cost e = costs.(e.D.id) in
      match (Arb.min_arborescence g ~root:0 ~cost, brute_min_arborescence g ~root:0 ~cost) with
      | None, None -> true
      | Some ids, Some (bc, _) ->
          Arb.is_arborescence g ~root:0 ids
          && Float.abs (Arb.tree_cost g ~cost ids -. bc) < 1e-6
      | Some _, None | None, Some _ -> false)

(* ------------------------------------------------------------------ *)
(* Differential references: the list-based Chu-Liu/Edmonds and Kruskal
   that the array-based oracles replaced, verbatim but for module paths
   (Kruskal took TreeGen's duplex links; here an item is an endpoint
   pair). Same prices, same edges, in the same order. *)

module Reference = struct
  type wedge = { orig : int; wsrc : int; wdst : int; cost : float }

  (* Core recursion over a vertex count and working edge list. Vertices are
     0 .. n-1 and [root] is one of them. Returns original edge ids. *)
  let rec solve n root (wedges : wedge list) : int list option =
    if n <= 1 then Some []
    else begin
      (* Cheapest incoming working edge for every non-root vertex. *)
      let inc = Array.make n None in
      List.iter
        (fun e ->
          if e.wdst <> root && e.wsrc <> e.wdst then
            match inc.(e.wdst) with
            | None -> inc.(e.wdst) <- Some e
            | Some best -> if e.cost < best.cost then inc.(e.wdst) <- Some e)
        wedges;
      let missing = ref false in
      for v = 0 to n - 1 do
        if v <> root && inc.(v) = None then missing := true
      done;
      if !missing then None
      else begin
        (* Find a cycle in the functional graph v -> src(inc(v)), if any.
           Colors: 0 unvisited, 1 on current path, 2 done. *)
        let color = Array.make n 0 in
        color.(root) <- 2;
        let cycle = ref [] in
        let v = ref 0 in
        while !cycle = [] && !v < n do
          if color.(!v) = 0 then begin
            (* Walk parents until we hit a visited vertex. *)
            let path = ref [] in
            let u = ref !v in
            while color.(!u) = 0 do
              color.(!u) <- 1;
              path := !u :: !path;
              match inc.(!u) with
              | Some e -> u := e.wsrc
              | None -> assert false (* non-root vertices all have inc *)
            done;
            if color.(!u) = 1 then begin
              (* !u is on the current path: the portion of the path from the
                 first occurrence of !u onwards is the cycle. *)
              let rec from_u = function
                | [] -> assert false
                | x :: rest -> if x = !u then x :: rest else from_u rest
              in
              (* [path] is reversed (deepest first); re-reverse to walk from
                 the start vertex, then cut at the cycle entry. *)
              cycle := from_u (List.rev !path)
            end;
            List.iter (fun x -> color.(x) <- 2) !path
          end;
          incr v
        done;
        match !cycle with
        | [] ->
            (* Acyclic: the chosen in-edges are the arborescence. *)
            let ids = ref [] in
            for u = 0 to n - 1 do
              match inc.(u) with
              | Some e when u <> root -> ids := e.orig :: !ids
              | _ -> ()
            done;
            Some !ids
        | cyc ->
            let in_cycle = Array.make n false in
            List.iter (fun x -> in_cycle.(x) <- true) cyc;
            (* Contract the cycle into fresh vertex [c]; relabel the rest. *)
            let c = 0 in
            let relabel = Array.make n (-1) in
            let next = ref 1 in
            for u = 0 to n - 1 do
              if in_cycle.(u) then relabel.(u) <- c
              else begin
                relabel.(u) <- !next;
                incr next
              end
            done;
            let n' = !next in
            let root' = relabel.(root) in
            (* Edges into the cycle get reduced costs; remember which original
               edge each contracted edge stands for, and which cycle vertex it
               enters (to break the cycle on expansion). *)
            let enters = Hashtbl.create 16 in
            (* key: orig id of an edge entering the cycle; value: entered vertex *)
            let contracted =
              List.filter_map
                (fun e ->
                  let su = in_cycle.(e.wsrc) and dv = in_cycle.(e.wdst) in
                  if su && dv then None
                  else if dv then begin
                    let chosen =
                      match inc.(e.wdst) with Some x -> x | None -> assert false
                    in
                    if not (Hashtbl.mem enters e.orig) then
                      Hashtbl.add enters e.orig e.wdst;
                    Some
                      {
                        orig = e.orig;
                        wsrc = relabel.(e.wsrc);
                        wdst = c;
                        cost = e.cost -. chosen.cost;
                      }
                  end
                  else
                    Some
                      { e with wsrc = relabel.(e.wsrc); wdst = relabel.(e.wdst) })
                wedges
            in
            (match solve n' root' contracted with
            | None -> None
            | Some chosen_ids ->
                (* Exactly one chosen edge enters the contracted vertex: find
                   it via the [enters] table, then add every cycle in-edge
                   except the one into the vertex that edge enters. *)
                let entry_vertex = ref (-1) in
                List.iter
                  (fun id ->
                    match Hashtbl.find_opt enters id with
                    | Some v -> entry_vertex := v
                    | None -> ())
                  chosen_ids;
                assert (!entry_vertex >= 0);
                let cycle_edges =
                  List.filter_map
                    (fun u ->
                      if u = !entry_vertex then None
                      else
                        match inc.(u) with
                        | Some e -> Some e.orig
                        | None -> assert false)
                    cyc
                in
                Some (cycle_edges @ chosen_ids))
      end
    end

  let min_arborescence g ~root ~cost =
    let n = D.n_vertices g in
    if root < 0 || root >= n then invalid_arg "Arborescence: root out of range";
    let wedges =
      D.fold_edges
        (fun e acc ->
          { orig = e.D.id; wsrc = e.D.src; wdst = e.D.dst;
            cost = cost e }
          :: acc)
        g []
    in
    solve n root wedges

  let kruskal ~n ends price =
    let order =
      List.init (Array.length ends) Fun.id
      |> List.sort (fun a b ->
             let c = compare price.(a) price.(b) in
             if c <> 0 then c else compare a b)
    in
    let dsu = Dsu.create n in
    let chosen =
      List.filter
        (fun li ->
          let u, v = ends.(li) in
          Dsu.union dsu u v)
        order
    in
    if Dsu.n_sets dsu = 1 then Some chosen else None
end

(* Random multigraphs (parallel edges in both directions) priced from a
   handful of values, so equal-cost in-edges and equal-price items are
   everywhere. Each graph is solved under several price vectors through
   one reused workspace / solver, as the MWU packer does. *)
let random_multigraph rng =
  let n = 1 + Random.State.int rng 9 in
  let g = D.create ~n in
  let density = 0.2 +. Random.State.float rng 0.6 in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then
        for _ = 1 to 1 + Random.State.int rng 2 do
          if Random.State.float rng 1. < density then
            ignore (D.add_edge g ~src:u ~dst:v ~cap:1.)
        done
    done
  done;
  g

let tied_prices rng k =
  let levels = 1 + Random.State.int rng 4 in
  Array.init k (fun _ ->
      match Random.State.int rng 12 with
      | 0 -> infinity
      | 1 -> 1e18
      | _ -> 0.5 *. Float.of_int (Random.State.int rng levels))

let prop_arborescence_matches_reference =
  QCheck.Test.make ~name:"array chu-liu/edmonds matches list reference"
    ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed + 97 |] in
      let g = random_multigraph rng in
      let ws = Arb.workspace g in
      let root = Random.State.int rng (D.n_vertices g) in
      List.for_all
        (fun _ ->
          let costs =
            Array.map
              (fun p -> if Float.is_finite p then p else 1e18)
              (tied_prices rng (D.n_edges g))
          in
          let expected =
            Reference.min_arborescence g ~root ~cost:(fun e -> costs.(e.D.id))
          in
          Arb.solve ws ~root costs = expected
          && Arb.min_arborescence g ~root ~cost:(fun e -> costs.(e.D.id))
             = expected)
        (List.init 6 Fun.id))

let prop_kruskal_matches_reference =
  QCheck.Test.make ~name:"array kruskal matches list reference" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed + 131 |] in
      let g = random_multigraph rng in
      let n = D.n_vertices g in
      let ends =
        Array.of_list (List.map (fun e -> (e.D.src, e.D.dst)) (D.edges g))
      in
      let solver =
        Kruskal.create ~n ~src:(Array.map fst ends) ~dst:(Array.map snd ends)
      in
      List.for_all
        (fun _ ->
          let price = tied_prices rng (Array.length ends) in
          Kruskal.min_tree solver price = Reference.kruskal ~n ends price)
        (List.init 6 Fun.id))

(* ------------------------------------------------------------------ *)
(* Hamiltonian *)

let cube_mesh_cap u v =
  let pairs =
    [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3);
      (4, 5); (4, 6); (4, 7); (5, 6); (5, 7); (6, 7);
      (0, 4); (1, 5); (2, 6); (3, 7) ]
  in
  if List.mem (min u v, max u v) pairs then 1 else 0

let test_hamiltonian_cube_mesh () =
  (match Ham.find_cycle ~n:8 ~cap:cube_mesh_cap with
  | None -> Alcotest.fail "cube mesh has a hamiltonian cycle"
  | Some cycle -> Alcotest.(check int) "length" 8 (List.length cycle));
  let packed = Ham.pack_cycles ~n:8 ~cap:cube_mesh_cap in
  Alcotest.(check int) "dgx-1p packs 2 cycles" 2 (List.length packed)

let test_hamiltonian_no_cycle () =
  (* star graph has no hamiltonian cycle for n >= 3 *)
  let cap u v = if u = 0 || v = 0 then 1 else 0 in
  Alcotest.(check bool) "no cycle" true (Ham.find_cycle ~n:4 ~cap = None)

let test_hamiltonian_two_nodes () =
  Alcotest.(check bool) "duplex 2-ring" true
    (Ham.find_cycle ~n:2 ~cap:(fun _ _ -> 1) <> None);
  Alcotest.(check int) "two links pack two 2-rings" 2
    (List.length (Ham.pack_cycles ~n:2 ~cap:(fun _ _ -> 2)))

let prop_packed_cycles_disjoint =
  QCheck.Test.make ~name:"packed cycles respect capacities" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed + 3 |] in
      let n = 5 + Random.State.int rng 3 in
      let caps = Array.make_matrix n n 0 in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let c = Random.State.int rng 3 in
          caps.(u).(v) <- c;
          caps.(v).(u) <- c
        done
      done;
      let cycles = Ham.pack_cycles ~n ~cap:(fun u v -> caps.(u).(v)) in
      let used = Array.make_matrix n n 0 in
      let consume u v = used.(u).(v) <- used.(u).(v) + 1; used.(v).(u) <- used.(v).(u) + 1 in
      List.iter
        (fun cycle ->
          match cycle with
          | [ a; b ] -> consume a b
          | _ ->
              let rec walk = function
                | a :: (b :: _ as rest) -> consume a b; walk rest
                | [ last ] -> consume last (List.hd cycle)
                | [] -> ()
              in
              walk cycle)
        cycles;
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if used.(u).(v) > caps.(u).(v) then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Automorphism *)

let test_automorphisms_complete () =
  (* K4: all 24 permutations preserve it *)
  let autos = Auto.automorphisms ~n:4 ~weight:(fun u v -> if u = v then 0. else 1.) in
  Alcotest.(check int) "K4 automorphisms" 24 (List.length autos)

let test_automorphisms_path () =
  (* path 0-1-2: identity and the flip *)
  let w u v =
    let pair = (min u v, max u v) in
    if pair = (0, 1) || pair = (1, 2) then 1. else 0.
  in
  let autos = Auto.automorphisms ~n:3 ~weight:w in
  Alcotest.(check int) "path automorphisms" 2 (List.length autos)

let test_orbits_square () =
  (* 4-cycle 0-1-2-3: automorphism group = dihedral, order 8.
     Subsets of size 2 split into adjacent vs diagonal pairs. *)
  let w u v =
    let pair = (min u v, max u v) in
    if List.mem pair [ (0, 1); (1, 2); (2, 3); (0, 3) ] then 1. else 0.
  in
  let autos = Auto.automorphisms ~n:4 ~weight:w in
  Alcotest.(check int) "dihedral order" 8 (List.length autos);
  let orbits = Auto.orbits ~autos (Auto.subsets ~n:4 ~size:2) in
  Alcotest.(check int) "two orbits" 2 (List.length orbits)

let test_subsets_count () =
  Alcotest.(check int) "8 choose 3" 56 (List.length (Auto.subsets ~n:8 ~size:3));
  Alcotest.(check int) "8 choose 8" 1 (List.length (Auto.subsets ~n:8 ~size:8));
  Alcotest.(check (list (list int))) "subsets of 3 choose 2"
    [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ] ]
    (Auto.subsets ~n:3 ~size:2)

let () =
  Alcotest.run "graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "basics" `Quick test_digraph_basics;
          Alcotest.test_case "errors" `Quick test_digraph_errors;
          Alcotest.test_case "parallel edges" `Quick test_digraph_parallel_edges;
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "reverse/reachable" `Quick test_reverse_reachable;
        ] );
      ( "dsu",
        [
          Alcotest.test_case "basics" `Quick test_dsu;
          QCheck_alcotest.to_alcotest prop_dsu_matches_reference;
        ] );
      ( "maxflow",
        [
          Alcotest.test_case "diamond" `Quick test_maxflow_diamond;
          Alcotest.test_case "classic network" `Quick test_maxflow_classic;
          Alcotest.test_case "min cut" `Quick test_min_cut;
          QCheck_alcotest.to_alcotest prop_maxflow_equals_brute_min_cut;
        ] );
      ( "arborescence",
        [
          Alcotest.test_case "cycle contraction" `Quick test_arborescence_cycle_contraction;
          Alcotest.test_case "disconnected" `Quick test_arborescence_none;
          Alcotest.test_case "depth" `Quick test_arborescence_depth;
          QCheck_alcotest.to_alcotest prop_min_arborescence_optimal;
          QCheck_alcotest.to_alcotest prop_arborescence_matches_reference;
        ] );
      ("kruskal", [ QCheck_alcotest.to_alcotest prop_kruskal_matches_reference ]);
      ( "hamiltonian",
        [
          Alcotest.test_case "cube mesh" `Quick test_hamiltonian_cube_mesh;
          Alcotest.test_case "no cycle" `Quick test_hamiltonian_no_cycle;
          Alcotest.test_case "two nodes" `Quick test_hamiltonian_two_nodes;
          QCheck_alcotest.to_alcotest prop_packed_cycles_disjoint;
        ] );
      ( "automorphism",
        [
          Alcotest.test_case "complete graph" `Quick test_automorphisms_complete;
          Alcotest.test_case "path" `Quick test_automorphisms_path;
          Alcotest.test_case "square orbits" `Quick test_orbits_square;
          Alcotest.test_case "subsets" `Quick test_subsets_count;
        ] );
    ]
