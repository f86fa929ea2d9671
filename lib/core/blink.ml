module Digraph = Blink_graph.Digraph
module Maxflow = Blink_graph.Maxflow
module Automorphism = Blink_graph.Automorphism
module Server = Blink_topology.Server
module Fabric = Blink_topology.Fabric
module Tree = Blink_collectives.Tree
module Codegen = Blink_collectives.Codegen
module Engine = Blink_sim.Engine
module Telemetry = Blink_telemetry.Telemetry
module Store = Blink_store.Store
module Fingerprint = Blink_store.Fingerprint

let log_src = Logs.Src.create "blink" ~doc:"Blink planner facade"

module Log = (val Logs.src_log log_src : Logs.LOG)

exception Partitioned of { alive : int list; unreachable : int list }

let () =
  Printexc.register_printer (function
    | Partitioned { alive; unreachable } ->
        let ids l = String.concat "," (List.map string_of_int l) in
        Some
          (Printf.sprintf
             "Blink.Partitioned { alive = [%s]; unreachable = [%s] }"
             (ids alive) (ids unreachable))
    | _ -> None)

type plan_kind =
  | Packed of { directed : Treegen.packing; undirected : Treegen.packing }
  | One_hop of float  (* aggregate rate, GB/s *)

type cache_stats = { hits : int; misses : int }

type plan_key = Plan.collective * int * int

(* Everything a handle persists in the shared store, in one sum so a
   single polymorphic store instance serves all three kinds. Only
   [Compiled] entries are evictable and counted against the store's plan
   cap; topology packings and tuned chunks are cheap per-fingerprint
   derived state. *)
type stored =
  | Topo of {
      t_fabric : Fabric.t;
      t_graph : Digraph.t;
      t_kind : plan_kind;
      t_root : int;
    }
  | Chunk of int  (* MIAD-tuned chunk for a size class *)
  | Compiled of Plan.t

type stored_key =
  | Topo_key
  | Chunk_key of int  (* log2 size class *)
  | Plan_key of plan_key

type store = (stored_key, stored) Store.t

let new_store ?max_plans () : store = Store.create ?max_plans ()
let store_stats (s : store) = Store.stats s

type t = {
  server : Server.t;
  (* The effective topology view: mutated in place by {!degrade_link} /
     {!fail_link} / {!fail_gpu}, then replanned. All four fields always
     describe the same surviving graph. *)
  mutable gpus : int array;
  mutable fabric : Fabric.t;
  mutable graph : Digraph.t;
  mutable kind : plan_kind;
  mutable root : int;
  explicit_root : int option;  (* gpu id pinned by [create ?root] *)
  epsilon : float option;
  threshold : float option;
  (* Which planner backend built (and rebuilds) the packings. Part of the
     fingerprint, so store entries never cross backends. Only the
     ["treegen"] backend has an incremental warm-replan path; every other
     backend replans cold. *)
  planner : Planner.backend;
  telemetry : Telemetry.t;
  faults : (int * int, Server.link_state) Hashtbl.t;  (* gpu pair, u < v *)
  (* Once a mutation partitions the NVLink graph the handle is dead: the
     sets are kept so every later call re-raises the same typed error. *)
  mutable partition : (int list * int list) option;
  (* Compiled plans, tuned chunks and the topology packing live in the
     fingerprint-keyed store — one entry per (collective, elems, chunk)
     key under this handle's fingerprint, so repeated collectives at the
     same size skip tree extraction, codegen and tuning — the paper's
     generate-once / run-every-iteration split. A private store (the
     default) reproduces the old per-handle cache exactly; a shared store
     ([create ?store]) lets every isomorphic allocation in a cluster hit
     the same compiled plans. Handle-local hit/miss/eviction/invalidation
     counters live in the telemetry registry so the exporters and
     {!plan_cache_stats} read the same numbers; the store keeps its own
     aggregate counters across all tenants. *)
  store : store;
  (* Whether this handle owns [store] (no [?store] at create): migration
     after a fault then empties the stale source bucket. A shared store
     instead keeps the old bucket intact — one tenant's fault must not
     poison an isomorphic-but-healthy tenant's entries. *)
  owns_store : bool;
  mutable fingerprint : Fingerprint.t;
  (* Tree extraction from the packings is pure; memoize it per handle. *)
  mutable bcast_trees : Tree.weighted list option;
  mutable ar_trees : Tree.weighted list option;
  (* One directed packing per rank ([None] on one-hop fabrics) and its
     trees, for the root-less all-gather and reduce-scatter. *)
  mutable root_trees :
    (Treegen.packing array option * Tree.weighted list array) option;
  (* Selective re-tune state, filled by a warm fault replan from the old
     fingerprint's tuned chunks: [`Reuse c] — the post-fault bottleneck
     rate is unchanged, keep chunk [c] without probing; [`Init c] — the
     rate moved, re-probe starting from [c]. Hint-derived chunks are
     handle-local and never published to the store (a shared store must
     only ever serve cold-tuned chunks). Cleared by cold/contingency
     replans. *)
  chunk_hints : (int, [ `Reuse of int | `Init of int ]) Hashtbl.t;
  (* The current topology view came from a warm (incremental) replan
     rather than a cold plan. Warm-derived state is rate-equivalent but
     not guaranteed bit-identical to a cold build, so while this is set a
     handle on a {e shared} store publishes nothing ([publishes]): chunks
     tune into [chunk_hints], plan misses compile privately, prewarm
     compiles no plan and contingencies decline. [plan] and prewarm
     consult the hints alike, on any store. A later cold or contingency
     replan clears it. *)
  mutable warm_topology : bool;
  (* Outstanding {!prewarm_async} jobs. While nonzero, topology mutation
     is refused: an inflight job tunes and compiles against the current
     fabric/trees/fingerprint snapshot, and a mutation under it would
     insert entries for a topology the handle no longer has. *)
  mutable prewarm_inflight : int;
}

let trees_of_packing g (p : Treegen.packing) =
  let k = Digraph.n_vertices g in
  List.map
    (fun tree ->
      let edges =
        List.map
          (fun id ->
            let e = Digraph.edge g id in
            (e.Digraph.src, e.Digraph.dst))
          tree.Treegen.edges
      in
      (Tree.of_edges ~n_ranks:k ~root:p.Treegen.root edges, tree.Treegen.weight))
    p.Treegen.trees
  |> Tree.normalize_shares

let one_hop_tree ~n_ranks ~root =
  let edges =
    List.filter_map
      (fun v -> if v = root then None else Some (root, v))
      (List.init n_ranks Fun.id)
  in
  Tree.of_edges ~n_ranks ~root edges

(* The one-hop broadcast: one two-hop tree per non-root rank [i], root
   -> [i] -> every other rank, share [1/(n-1)]. The root's attach sends
   each piece once and every other attach relays one, instead of the
   root's single attach carrying all [n-1] copies of a star. *)
let relay_trees ~n_ranks ~root =
  let ranks = List.init n_ranks Fun.id in
  let share = 1. /. Float.of_int (n_ranks - 1) in
  List.filter_map
    (fun i ->
      if i = root then None
      else
        let relayed =
          List.filter_map
            (fun j -> if j = root || j = i then None else Some (i, j))
            ranks
        in
        Some
          { Tree.tree = Tree.of_edges ~n_ranks ~root ((root, i) :: relayed);
            share })
    ranks

let one_hop_trees ~n_ranks =
  let share = 1. /. Float.of_int n_ranks in
  List.init n_ranks (fun root ->
      { Tree.tree = one_hop_tree ~n_ranks ~root; share })

(* ------------------------------------------------------------------ *)
(* Topology planning, shared by [create] and the fault-driven replans. *)

let rank_of_gpu gpus g =
  let found = ref (-1) in
  Array.iteri (fun i x -> if x = g then found := i) gpus;
  !found

let raise_disconnected ~on_disconnected graph ~gpus ~root =
  match on_disconnected with
  | `Invalid_arg ->
      invalid_arg
        "Blink.create: allocation has no NVLink spanning structure \
         from the root (disconnected NVLink graph); use hybrid/PCIe \
         transfers"
  | `Partitioned ->
      let k = Array.length gpus in
      let reach = Digraph.reachable graph ~from:root in
      let alive = ref [] and unreachable = ref [] in
      for i = k - 1 downto 0 do
        if reach.(i) then alive := gpus.(i) :: !alive
        else unreachable := gpus.(i) :: !unreachable
      done;
      raise (Partitioned { alive = !alive; unreachable = !unreachable })

(* The rank of the gpu pinned by [create ?root], if any. *)
let pinned_rank ~gpus =
  Option.map (fun g ->
      match rank_of_gpu gpus g with
      | -1 ->
          invalid_arg
            (Printf.sprintf "Blink: pinned root gpu %d left the allocation" g)
      | r -> r)

(* The fabric view of the surviving [gpus] under the accumulated link
   [faults]: fabric, NVLink graph and root rank (the pinned one, else
   rank 0 on one-hop fabrics, else the max-rate root). A packed graph
   that does not span from the root raises per [on_disconnected]:
   [create] keeps its historical [Invalid_argument] for a born-broken
   allocation, while the mutation path raises the typed {!Partitioned}
   with the reachable/unreachable GPU sets. *)
let topology_view ~on_disconnected server ~gpus ~faults ~root_gpu =
  let fabric = Fabric.of_server ~faults server ~gpus in
  let graph = Server.nvlink_digraph ~faults server ~gpus in
  let one_hop = Option.is_some server.Server.nvswitch in
  let root =
    match pinned_rank ~gpus root_gpu with
    | Some r -> r
    | None -> if one_hop then 0 else Treegen.best_root graph
  in
  if (not one_hop) && Array.length gpus > 1
     && not (Digraph.is_connected_from graph ~root)
  then raise_disconnected ~on_disconnected graph ~gpus ~root;
  (fabric, graph, root)

(* Plan the NVLink topology of {!topology_view}. *)
let plan_topology ?epsilon ?threshold ~telemetry ~planner ~on_disconnected
    server ~gpus ~faults ~root_gpu =
  let fabric, graph, root =
    topology_view ~on_disconnected server ~gpus ~faults ~root_gpu
  in
  match server.Server.nvswitch with
  | Some kind ->
      let rate = 6. *. Blink_topology.Link.bandwidth kind in
      (fabric, graph, One_hop rate, root)
  | None ->
      let directed =
        Planner.plan planner ?epsilon ?threshold ~telemetry graph ~root
          ~undirected:false
      in
      let undirected =
        Planner.plan planner ?epsilon ?threshold ~telemetry graph ~root
          ~undirected:true
      in
      Log.info (fun m ->
          m "%s gpus=[%s]: root gpu %d, broadcast %.1f GB/s (%d trees), \
             all-reduce %.1f GB/s (%d trees)"
            server.Server.name
            (String.concat "," (List.map string_of_int (Array.to_list gpus)))
            gpus.(root) directed.Treegen.rate
            (List.length directed.Treegen.trees)
            undirected.Treegen.rate
            (List.length undirected.Treegen.trees));
      (fabric, graph, Packed { directed; undirected }, root)

(* Fetch-or-build the topology packing for a fingerprint. The store key
   is the fingerprint id, whose equality guarantees bit-identical
   construction inputs — so a memo hit hands back exactly the packing
   this handle would have built, already paid for by an isomorphic
   tenant. *)
let topo_via_store ?epsilon ?threshold ~telemetry ~planner ~on_disconnected
    ~(store : store) ~fp server ~gpus ~faults ~root_gpu =
  let build () =
    let fabric, graph, kind, root =
      plan_topology ?epsilon ?threshold ~telemetry ~planner ~on_disconnected
        server ~gpus ~faults ~root_gpu
    in
    Topo { t_fabric = fabric; t_graph = graph; t_kind = kind; t_root = root }
  in
  match Store.memo store ~fp Topo_key ~build with
  | Topo { t_fabric; t_graph; t_kind; t_root } ->
      (t_fabric, t_graph, t_kind, t_root)
  | Chunk _ | Compiled _ -> assert false

let create ?root ?epsilon ?threshold ?telemetry ?max_cached_plans ?link_faults
    ?store ?(planner = Planner.default) server ~gpus =
  if Array.length gpus < 2 then
    invalid_arg "Blink.create: gpus must name at least 2 GPUs";
  let telemetry =
    match telemetry with Some t -> t | None -> Telemetry.create ()
  in
  (match max_cached_plans with
  | Some n when n <= 0 ->
      invalid_arg "Blink.create: max_cached_plans must be positive"
  | _ -> ());
  (match (store, max_cached_plans) with
  | Some _, Some _ ->
      invalid_arg
        "Blink.create: max_cached_plans belongs to the store; size a shared \
         store with new_store ?max_plans"
  | _ -> ());
  let explicit_root =
    match root with
    | None -> None
    | Some r ->
        if r < 0 || r >= Array.length gpus then
          invalid_arg "Blink.create: root rank out of range";
        Some gpus.(r)
  in
  let faults =
    match link_faults with
    | None -> []
    | Some fs -> Server.normalize_faults fs
  in
  let store, owns_store =
    match store with
    | Some s -> (s, false)
    | None -> (Store.create ?max_plans:max_cached_plans (), true)
  in
  let fingerprint =
    Fingerprint.make ~planner:(Planner.name planner) ?epsilon ?threshold ?root
      server ~gpus ~faults
  in
  (* A handle created directly on a degraded fabric reports partition
     through the typed error — it is exactly the replanned state a
     mutated handle converges to. *)
  let on_disconnected =
    match link_faults with None -> `Invalid_arg | Some _ -> `Partitioned
  in
  let fabric, graph, kind, root =
    topo_via_store ?epsilon ?threshold ~telemetry ~planner ~on_disconnected
      ~store ~fp:(Fingerprint.id fingerprint) server ~gpus ~faults
      ~root_gpu:explicit_root
  in
  let fault_table = Hashtbl.create 8 in
  List.iter (fun (key, state) -> Hashtbl.replace fault_table key state) faults;
  {
    server;
    gpus = Array.copy gpus;
    fabric;
    graph;
    kind;
    root;
    explicit_root;
    epsilon;
    threshold;
    planner;
    telemetry;
    faults = fault_table;
    partition = None;
    store;
    owns_store;
    fingerprint;
    bcast_trees = None;
    ar_trees = None;
    root_trees = None;
    chunk_hints = Hashtbl.create 4;
    warm_topology = false;
    prewarm_inflight = 0;
  }

(* Every planning/execution entry point funnels through this: a
   partitioned handle keeps raising the same actionable error instead of
   silently executing plans for a graph that no longer exists. *)
let check_usable t =
  match t.partition with
  | Some (alive, unreachable) -> raise (Partitioned { alive; unreachable })
  | None -> ()

let fabric t = t.fabric
let server t = t.server
let planner t = t.planner
let root t = t.root
let telemetry t = t.telemetry
let store t = t.store
let fingerprint t = t.fingerprint
let n_ranks t = Fabric.n_ranks t.fabric
let gpus t = Array.copy t.gpus

let link_faults t =
  Hashtbl.fold (fun key state acc -> (key, state) :: acc) t.faults []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let packing t =
  match t.kind with Packed p -> Some p.directed | One_hop _ -> None

let undirected_packing t =
  match t.kind with Packed p -> Some p.undirected | One_hop _ -> None

let rate t =
  match t.kind with Packed p -> p.directed.Treegen.rate | One_hop r -> r

let all_reduce_rate t =
  match t.kind with Packed p -> p.undirected.Treegen.rate | One_hop r -> r

let graph t = t.graph

(* The least [ratio cap_in(S) |S|] over the nonempty proper rank
   subsets S of [g], where [cap_in(S)] is the capacity entering S from
   outside. Exact for up to 16 ranks; above that only the singletons and
   their complements are tried, which can only raise the minimum, so the
   result stays an upper bound on what any schedule reaches. *)
let min_cut_ratio g ratio =
  let n = Digraph.n_vertices g in
  let popcount m =
    let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
    go m 0
  in
  let cap_in mask =
    Digraph.fold_edges
      (fun e acc ->
        if mask land (1 lsl e.Digraph.dst) <> 0
           && mask land (1 lsl e.Digraph.src) = 0
        then acc +. e.Digraph.cap
        else acc)
      g 0.
  in
  let full = (1 lsl n) - 1 in
  let masks =
    if n <= 16 then List.init (full - 1) (fun i -> i + 1)
    else
      List.concat_map
        (fun v -> [ 1 lsl v; full lxor (1 lsl v) ])
        (List.init n Fun.id)
  in
  List.fold_left
    (fun acc mask -> Float.min acc (ratio (cap_in mask) (popcount mask)))
    infinity masks

(* The per-root schedules' cut values (see below): all-gather,
   reduce-scatter, and all-reduce as the two in sequence. *)
let per_root_cuts g =
  let s = Blink_topology.Link.reduce_scale in
  let nf = Float.of_int (Digraph.n_vertices g) in
  let ratio f = min_cut_ratio g (fun cap size -> f cap (Float.of_int size)) in
  let ag = ratio (fun cap size -> cap /. (nf -. size)) in
  let rs = ratio (fun cap size -> s *. nf *. cap /. size) in
  (ag, rs, 1. /. ((1. /. rs) +. (1. /. (nf *. ag))))

(* The topology's edge-cut upper bound on the collective's algorithm
   bandwidth, in GB/s of buffer bytes per second (the {!algbw_gbps}
   convention). Rooted move-only collectives are bounded by the Edmonds
   arborescence-packing value — min over v of maxflow(root -> v).
   Reduce-type collectives de-rate every cut by
   {!Blink_topology.Link.reduce_scale}: a transfer whose receiver
   reduces inline runs at [scale * bw], and the reduce phase carries the
   full buffer across each cut. All-reduce trees are bounded by the
   certified fractional optimum of the undirected spanning-tree packing
   ({!Treegen.optimum}, the Tutte/Nash-Williams quantity): each packed
   tree carries the buffer once in each direction of every tree edge,
   and the de-rated reduce direction binds. Gather funnels n-1 per-rank
   buffers through the root's cut, so its bound divides by n-1.
   All-gather and reduce-scatter take their cut bounds (ForestColl,
   arXiv 2402.06787): every subset S must receive the |V\S| buffers held
   outside it, or, reduced, the |S|/n of the buffer it owns. One-hop
   fabrics (NVSwitch) replace every cut by the attach bandwidth the kind
   already carries; there the tightest reduce-scatter cut is all ranks
   but one, which must receive [(n-1)/n] of the buffer through a single
   attach. On packed fabrics all-reduce also has a per-root schedule,
   reduce-scatter then all-gather of the [1/n] segments: the buffer
   crosses the reduce-scatter cuts, then each segment the all-gather
   cuts, so that family's bound is [1 / (1/RS + 1/(n AG))], and
   all-reduce takes the larger of the two family bounds. *)
let edge_cut_bound t (collective : Plan.collective) =
  let n = Digraph.n_vertices t.graph in
  if n <= 1 then infinity
  else
    let directed () =
      match t.kind with
      | One_hop r -> r
      | Packed _ -> Maxflow.broadcast_rate t.graph ~root:t.root
    in
    let s = Blink_topology.Link.reduce_scale in
    let nf = Float.of_int n in
    match (collective, t.kind) with
    | Plan.Broadcast, _ -> directed ()
    | Plan.Reduce, _ -> s *. directed ()
    | Plan.All_reduce, One_hop r -> s *. r
    | Plan.Reduce_scatter, One_hop r -> s *. r *. nf /. (nf -. 1.)
    | Plan.Gather, _ | Plan.All_gather, One_hop _ -> directed () /. (nf -. 1.)
    | (Plan.All_reduce | Plan.All_gather | Plan.Reduce_scatter), Packed _ -> (
        let ag, rs, ar = per_root_cuts t.graph in
        match collective with
        | Plan.All_gather -> ag
        | Plan.Reduce_scatter -> rs
        | _ ->
            let trees = Treegen.optimum t.graph ~root:t.root ~undirected:true in
            Float.max (s *. trees) ar)

let broadcast_trees t =
  check_usable t;
  match t.bcast_trees with
  | Some trees -> trees
  | None ->
      let trees =
        match t.kind with
        | Packed p -> trees_of_packing t.graph p.directed
        | One_hop _ -> relay_trees ~n_ranks:(n_ranks t) ~root:t.root
      in
      t.bcast_trees <- Some trees;
      trees

(* Gather funnels every buffer into the root, where a relay only adds a
   hop: one-hop fabrics keep the root's star. *)
let gather_trees t =
  match t.kind with
  | Packed _ -> broadcast_trees t
  | One_hop _ ->
      check_usable t;
      [ { Tree.tree = one_hop_tree ~n_ranks:(n_ranks t) ~root:t.root;
          share = 1. } ]

let all_reduce_trees t =
  check_usable t;
  match t.ar_trees with
  | Some trees -> trees
  | None ->
      let trees =
        match t.kind with
        | Packed p -> trees_of_packing t.graph p.undirected
        | One_hop _ -> one_hop_trees ~n_ranks:(n_ranks t)
      in
      t.ar_trees <- Some trees;
      trees

(* The planning accuracy for the packings of ranks other than the
   handle's root. MWU at this epsilon followed by the ILP returns the
   same integral trees as the default on the DGX-1 fabrics at a fifth of
   the cost, and a fabric can need one such packing per rank. *)
let root_epsilon = 0.3

(* [p] carried through the rank permutation [sigma]: the k-th parallel
   edge [a -> b] becomes the k-th [sigma a -> sigma b] edge. [None] when
   such an edge is missing or has another capacity. *)
let map_packing g sigma (p : Treegen.packing) =
  let parallel ~src ~dst =
    List.filter (fun e -> e.Digraph.dst = dst) (Digraph.out_edges g src)
  in
  let image id =
    let e = Digraph.edge g id in
    let rec index k = function
      | [] -> raise Exit
      | x :: rest -> if x.Digraph.id = id then k else index (k + 1) rest
    in
    let k = index 0 (parallel ~src:e.Digraph.src ~dst:e.Digraph.dst) in
    match
      List.nth_opt
        (parallel ~src:sigma.(e.Digraph.src) ~dst:sigma.(e.Digraph.dst))
        k
    with
    | Some e' when Float.equal e'.Digraph.cap e.Digraph.cap -> e'.Digraph.id
    | Some _ | None -> raise Exit
  in
  match
    List.map
      (fun tree -> { tree with Treegen.edges = List.map image tree.Treegen.edges })
      p.Treegen.trees
  with
  | trees -> Some { p with Treegen.root = sigma.(p.Treegen.root); trees }
  | exception Exit -> None

(* One directed packing per rank. The handle's root keeps its own; a
   rank that an automorphism of the fabric maps a packed rank onto takes
   that packing through the automorphism; every other rank is packed by
   the handle's planner at [root_epsilon]. *)
let per_root_packings t (p : Treegen.packing) =
  let n = n_ranks t in
  let cap =
    Array.init n (fun u ->
        Array.init n (fun v ->
            if u = v then 0. else Digraph.total_cap t.graph ~src:u ~dst:v))
  in
  let autos =
    Automorphism.automorphisms ~n ~weight:(fun u v -> cap.(u).(v))
  in
  let packs = Array.make n None in
  let count source =
    Telemetry.incr t.telemetry ~labels:[ ("source", source) ]
      "plan.root_packings"
  in
  packs.(t.root) <- Some p;
  count "handle";
  for r = 0 to n - 1 do
    if Option.is_none packs.(r) then begin
      let mapped =
        List.find_map
          (fun sigma ->
            let u = ref (-1) in
            Array.iteri (fun v img -> if img = r then u := v) sigma;
            Option.bind packs.(!u) (map_packing t.graph sigma))
          autos
      in
      let packing =
        match mapped with
        | Some q ->
            count "mapped";
            q
        | None ->
            count "planned";
            Planner.plan t.planner ~epsilon:root_epsilon ?threshold:t.threshold
              ~telemetry:t.telemetry t.graph ~root:r ~undirected:false
      in
      packs.(r) <- Some packing
    end
  done;
  Array.map Option.get packs

let per_root t =
  check_usable t;
  match t.root_trees with
  | Some memo -> memo
  | None ->
      let memo =
        match t.kind with
        | Packed p ->
            let packs = per_root_packings t p.directed in
            (Some packs, Array.map (trees_of_packing t.graph) packs)
        | One_hop _ ->
            let n_ranks = n_ranks t in
            ( None,
              Array.init n_ranks (fun root ->
                  [ { Tree.tree = one_hop_tree ~n_ranks ~root; share = 1. } ])
            )
      in
      t.root_trees <- Some memo;
      memo

let root_packings t = fst (per_root t)
let root_trees t = snd (per_root t)

(* Every rank's trees, in root order: the tree list of a per-root plan. *)
let per_root_trees t = List.concat (Array.to_list (root_trees t))

(* Gate 1 of the per-root all-reduce: its family's cut value beats what
   the packed trees reach, [reduce_scale * rate]. Never on one-hop
   fabrics, whose rotating one-hop trees already are a per-root
   schedule. *)
let per_root_cut_wins t =
  match t.kind with
  | One_hop _ -> false
  | Packed p ->
      let _, _, ar = per_root_cuts t.graph in
      ar > Blink_topology.Link.reduce_scale *. p.undirected.Treegen.rate

(* Both gates of the per-root all-reduce candidate: gate 2, no per-root
   region smaller than one chunk, then gate 1. *)
let per_root_candidate t ~elems ~chunk =
  match t.kind with
  | One_hop _ -> false
  | Packed p ->
      elems >= chunk * n_ranks t * List.length p.directed.Treegen.trees
      && per_root_cut_wins t

let spec ?chunk_elems ?stream_reuse t =
  Codegen.spec ?chunk_elems ?stream_reuse ~telemetry:t.telemetry t.fabric

let broadcast ?chunk_elems ?stream_reuse t ~elems =
  Codegen.broadcast (spec ?chunk_elems ?stream_reuse t) ~root:t.root ~elems
    ~trees:(broadcast_trees t)

let reduce ?chunk_elems ?stream_reuse t ~elems =
  Codegen.reduce (spec ?chunk_elems ?stream_reuse t) ~root:t.root ~elems
    ~trees:(broadcast_trees t)

let all_reduce ?chunk_elems ?stream_reuse t ~elems =
  Codegen.all_reduce (spec ?chunk_elems ?stream_reuse t) ~elems
    ~trees:(all_reduce_trees t)

let gather ?chunk_elems ?stream_reuse t ~elems =
  Codegen.gather (spec ?chunk_elems ?stream_reuse t) ~root:t.root ~elems
    ~trees:(gather_trees t)

let all_gather ?chunk_elems ?stream_reuse t ~elems =
  Codegen.all_gather (spec ?chunk_elems ?stream_reuse t) ~elems
    ~trees:(per_root_trees t)

let reduce_scatter ?chunk_elems ?stream_reuse t ~elems =
  Codegen.reduce_scatter (spec ?chunk_elems ?stream_reuse t) ~elems
    ~trees:(per_root_trees t)

let time ?policy t prog =
  Engine.run ?policy ~telemetry:t.telemetry
    ~resources:(Fabric.resources t.fabric) prog

(* Engine run without telemetry, for MIAD probe measurements: each probe
   simulates the same interval of virtual time, so recording their op
   slices would stack dozens of overlapping runs onto the engine tracks
   of the Chrome export. The probes are still visible through the
   [miad.*] metrics and span that [Chunking.tune] records. Runs on the
   domain-local scratch arena (probes may fan out across pool domains),
   so successive probes on one domain reuse the same working set. *)
let time_quiet t prog =
  Engine.run_prepared
    (Engine.prepare ~resources:(Fabric.resources t.fabric) prog)

let bytes_per_elem = 4.

let algbw_gbps ?(bytes_per_elem = bytes_per_elem) ~elems result =
  bytes_per_elem *. Float.of_int elems /. result.Engine.makespan /. 1e9

let heuristic_chunk ~elems = max 256 (min 262_144 (elems / 16))

(* The publication rule. A handle whose topology came from a warm replan
   on a shared store never writes derived state — tuned chunks, compiled
   plans, contingencies — into the store: other tenants must only ever be
   served cold-equivalent entries. *)
let publishes t = t.owns_store || not t.warm_topology

(* MIAD chunk tuning against simulated AllReduce iterations of [elems]. *)
let miad ?init t ~elems =
  let measure ~chunk_elems =
    let prog, _ = all_reduce ~chunk_elems t ~elems in
    algbw_gbps ~elems (time_quiet t prog)
  in
  Chunking.tune ?init ~telemetry:t.telemetry ~measure ()

let tune_chunk ?(elems = 67_108_864) t = miad t ~elems

let size_class ~elems =
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  log2 (max 1 elems) 0

(* Where the chunk for [elems]'s size class comes from, read without side
   effects: the store's tuned chunk, else a warm replan's hint (reuse it,
   or re-probe from it), else a fresh probe from the size heuristic. *)
let chunk_source t ~elems =
  let cls = size_class ~elems in
  match
    Store.find_opt t.store ~fp:(Fingerprint.id t.fingerprint) (Chunk_key cls)
  with
  | Some (Chunk chunk) -> `Stored chunk
  | Some (Topo _ | Compiled _) -> assert false
  | None -> (
      match Hashtbl.find_opt t.chunk_hints cls with
      | Some (`Reuse chunk) -> `Reuse chunk
      | Some (`Init init) -> `Retune init
      | None -> `Tune (heuristic_chunk ~elems))

(* The chunk [plan] uses for [elems], with its bookkeeping. [tune ~init]
   runs the MIAD probes; prewarm passes results it tuned off the calling
   domain. *)
let resolve_chunk t ~elems ~tune =
  let cls = size_class ~elems in
  match chunk_source t ~elems with
  | `Stored chunk -> chunk
  | `Reuse chunk ->
      (* Post-fault bottleneck rate unchanged: the previous optimum
         stands; skip the MIAD probes entirely. *)
      Telemetry.incr t.telemetry "plan.chunk.reused";
      chunk
  | `Retune init ->
      (* The rate moved: re-probe, but descend from the previous optimum
         instead of the size heuristic. Handle-local only — see the
         [chunk_hints] invariant. *)
      let chunk = tune ~init in
      Telemetry.incr t.telemetry "plan.chunk.retuned";
      Hashtbl.replace t.chunk_hints cls (`Reuse chunk);
      chunk
  | `Tune init ->
      let chunk = tune ~init in
      if publishes t then
        Store.add t.store ~fp:(Fingerprint.id t.fingerprint) (Chunk_key cls)
          (Chunk chunk)
      else Hashtbl.replace t.chunk_hints cls (`Reuse chunk);
      chunk

let tuned_chunk t ~elems =
  resolve_chunk t ~elems ~tune:(fun ~init ->
      (miad ~init t ~elems).Chunking.chosen)

(* ------------------------------------------------------------------ *)
(* Compiled-plan cache *)

(* Pure given the handle's fabric, root and forced tree memos. An
   all-reduce that passes both per-root gates
   builds both families, replays each once and keeps the faster, the
   trees on a tie. *)
let build_plan t ((collective, elems, chunk) : plan_key) =
  let build family trees =
    Plan.build ~family collective ~spec:(spec ~chunk_elems:chunk t)
      ~root:t.root ~elems ~trees
  in
  match collective with
  | Plan.All_reduce when per_root_candidate t ~elems ~chunk ->
      let trees = build Plan.Trees (all_reduce_trees t) in
      let per_root = build Plan.Per_root (per_root_trees t) in
      let makespan (p : Plan.t) =
        (Engine.run_prepared ~arena:p.Plan.arena p.Plan.prepared)
          .Engine.makespan
      in
      let m_trees = makespan trees and m_per_root = makespan per_root in
      Log.debug (fun m ->
          m "all_reduce elems=%d chunk=%d: trees %.3f ms, per-root %.3f ms"
            elems chunk (m_trees *. 1e3) (m_per_root *. 1e3));
      if m_per_root < m_trees then per_root else trees
  | Plan.All_reduce -> build Plan.Trees (all_reduce_trees t)
  | Plan.Broadcast | Plan.Reduce -> build Plan.Trees (broadcast_trees t)
  | Plan.Gather -> build Plan.Trees (gather_trees t)
  | Plan.All_gather | Plan.Reduce_scatter ->
      build Plan.Per_root (per_root_trees t)

let count_miss t ~evicted =
  Telemetry.incr t.telemetry "plan.cache.misses";
  if evicted > 0 then
    Telemetry.incr t.telemetry ~by:evicted "plan.cache.evictions"

(* Cached compilation against the shared store. The handle's telemetry
   mirrors the outcome of its own store operations — hits, misses and any
   evictions its inserts caused — so per-handle counters keep their PR 1
   meaning even when many tenants share one store. *)
let plan ?chunk_elems t collective ~elems =
  check_usable t;
  let chunk =
    match chunk_elems with Some c -> c | None -> tuned_chunk t ~elems
  in
  let key = (collective, elems, chunk) in
  let fp = Fingerprint.id t.fingerprint in
  let hit plan =
    Telemetry.incr t.telemetry "plan.cache.hits";
    plan
  in
  if publishes t then
    match
      Store.find_or_build t.store ~fp (Plan_key key) ~build:(fun () ->
          Compiled (build_plan t key))
    with
    | `Hit, Compiled plan -> hit plan
    | `Miss evicted, Compiled plan ->
        count_miss t ~evicted;
        plan
    | _, (Topo _ | Chunk _) -> assert false
  else
    (* Existing (cold-built or migrated) entries still serve; misses
       compile privately and are not inserted. *)
    match Store.find_opt t.store ~fp (Plan_key key) with
    | Some (Compiled plan) -> hit plan
    | Some (Topo _ | Chunk _) -> assert false
    | None ->
        count_miss t ~evicted:0;
        build_plan t key

(* Kept as a thin wrapper: the counters now live in the telemetry
   registry, so exporters and this accessor can never disagree. A handle
   created with [Telemetry.disabled] reports zeros. *)
let plan_cache_stats t =
  {
    hits = Telemetry.counter_value t.telemetry "plan.cache.hits";
    misses = Telemetry.counter_value t.telemetry "plan.cache.misses";
  }

let plan_cache_invalidations t =
  Telemetry.counter_value t.telemetry "plan.cache.invalidations"

(* ------------------------------------------------------------------ *)
(* Fault-driven topology mutation: update the fabric view, selectively
   invalidate the plan-cache entries whose trees route over the affected
   edges, and replan on the surviving graph. *)

(* Does any of the plan's trees carry data directly between the two
   ranks? Tree parent arrays are in rank space, so an affected gpu pair
   maps to one parent-pointer test per tree. *)
let plan_touches_pair (plan : Plan.t) (ru, rv) =
  List.exists
    (fun { Tree.tree; _ } ->
      tree.Tree.parent.(ru) = rv || tree.Tree.parent.(rv) = ru)
    plan.Plan.trees

(* Warm incremental replan (ISSUE 8): rebuild the cheap fabric view, then
   reuse the previous packings' surviving trees through {!Treegen.replan}
   instead of re-running MWU/ILP from scratch. The root is computed
   exactly as the cold path would (pinned gpu, else best over the new
   graph); a moved root makes [Treegen.replan] fall back to a cold pack
   internally. The result is handle-local and deliberately NOT published
   to the store: store entries must stay cold-equivalent so isomorphic
   tenants — and the fresh-handle bit-identity verification — are never
   served a warm-derived packing. *)
let warm_replan t ~prev_directed ~prev_undirected ~prev_graph ~faults =
  let fabric, graph, root =
    topology_view ~on_disconnected:`Partitioned t.server ~gpus:t.gpus ~faults
      ~root_gpu:t.explicit_root
  in
  let directed, dstats =
    Treegen.replan ?epsilon:t.epsilon ?threshold:t.threshold
      ~telemetry:t.telemetry ~prev:prev_directed ~prev_graph graph ~root
  in
  let undirected, ustats =
    Treegen.replan ?epsilon:t.epsilon ?threshold:t.threshold
      ~telemetry:t.telemetry ~prev:prev_undirected ~prev_graph graph ~root
  in
  let kept = dstats.Treegen.kept_trees + ustats.Treegen.kept_trees in
  let displaced =
    dstats.Treegen.displaced_trees + ustats.Treegen.displaced_trees
  in
  if kept > 0 then
    Telemetry.incr t.telemetry ~by:kept "plan.replan.kept_trees";
  if displaced > 0 then
    Telemetry.incr t.telemetry ~by:displaced "plan.replan.displaced_trees";
  if dstats.Treegen.cold_fallback || ustats.Treegen.cold_fallback then
    Telemetry.incr t.telemetry "plan.replan.cold_fallbacks";
  (fabric, graph, Packed { directed; undirected }, root)

let apply_mutation ?(replan = `Warm) t ~affected =
  if t.prewarm_inflight > 0 then
    invalid_arg
      "Blink: topology mutation while a prewarm_async job is inflight; \
       prewarm_await it first";
  Telemetry.incr t.telemetry "fault.injected";
  let old_root_gpu = if Array.length t.gpus = 0 then -1 else t.gpus.(t.root) in
  let old_fp = Fingerprint.id t.fingerprint in
  let prev_kind = t.kind in
  let prev_graph = t.graph in
  (* The memoized trees describe the old fabric; they re-derive cheaply
     and must match a fresh handle on the degraded graph bit for bit. *)
  t.bcast_trees <- None;
  t.ar_trees <- None;
  t.root_trees <- None;
  (* Chunk knowledge the handle accumulated since the last mutation
     (warm re-tunes live only in [chunk_hints], never in a store bucket)
     must survive into this mutation's hint classification, or a second
     fault would forget the first fault's optimum and tune cold. *)
  let prev_hints =
    Hashtbl.fold
      (fun cls h acc ->
        (cls, match h with `Reuse c | `Init c -> c) :: acc)
      t.chunk_hints []
  in
  Hashtbl.reset t.chunk_hints;
  let faults = link_faults t in
  let fingerprint =
    Fingerprint.make ?epsilon:t.epsilon ?threshold:t.threshold
      ?root:(pinned_rank ~gpus:t.gpus t.explicit_root)
      t.server ~gpus:t.gpus ~faults ~planner:(Planner.name t.planner)
  in
  let fp = Fingerprint.id fingerprint in
  (* Replan first: a partition kills the handle before the store is
     touched, so a shared store is never poisoned by a dead tenant.
     Three paths, fastest first: a prewarmed contingency bucket (or an
     isomorphic tenant that already paid for this exact post-fault
     class) answers from the store; otherwise a warm replan reuses the
     surviving trees; otherwise plan cold. *)
  let t0 = Unix.gettimeofday () in
  let path = ref "cold" in
  let fabric, graph, kind, root =
    try
      match Store.find_opt t.store ~fp Topo_key with
      | Some (Topo { t_fabric; t_graph; t_kind; t_root }) ->
          path := "contingency";
          Store.note_contingency t.store ~hit:true;
          Telemetry.incr t.telemetry "plan.contingency.hits";
          (t_fabric, t_graph, t_kind, t_root)
      | Some (Chunk _ | Compiled _) -> assert false
      | None -> (
          Store.note_contingency t.store ~hit:false;
          Telemetry.incr t.telemetry "plan.contingency.misses";
          match (replan, prev_kind) with
          (* The incremental warm path is TreeGen machinery (tree remap +
             residual MWU + warm-started ILP): other backends take the
             cold path below, rebuilding with their own [plan]. *)
          | `Warm, Packed prev when t.planner = Planner.Treegen ->
              path := "warm";
              warm_replan t ~prev_directed:prev.directed
                ~prev_undirected:prev.undirected ~prev_graph ~faults
          | (`Warm | `Cold), _ ->
              topo_via_store ?epsilon:t.epsilon ?threshold:t.threshold
                ~telemetry:t.telemetry ~planner:t.planner
                ~on_disconnected:`Partitioned ~store:t.store ~fp t.server
                ~gpus:t.gpus ~faults ~root_gpu:t.explicit_root)
    with Partitioned { alive; unreachable } as e ->
      t.partition <- Some (alive, unreachable);
      raise e
  in
  Telemetry.observe t.telemetry
    ~labels:[ ("path", !path) ]
    "plan.replan_s"
    (Unix.gettimeofday () -. t0);
  (* Selective re-tune: after a warm replan, the old fingerprint's tuned
     chunks become hints — reused outright when the undirected bottleneck
     rate is unchanged, a probe starting point otherwise. *)
  let hint_of_chunk =
    match (!path, prev_kind, kind) with
    | "warm", Packed prev, Packed next ->
        if
          Float.abs
            (next.undirected.Treegen.rate -. prev.undirected.Treegen.rate)
          <= 1e-9
        then Some (fun chunk -> `Reuse chunk)
        else Some (fun chunk -> `Init chunk)
    | _ -> None
  in
  (match hint_of_chunk with
  | Some hint ->
      List.iter
        (fun (cls, chunk) -> Hashtbl.replace t.chunk_hints cls (hint chunk))
        prev_hints
  | None -> ());
  t.fabric <- fabric;
  t.graph <- graph;
  t.kind <- kind;
  t.root <- root;
  t.fingerprint <- fingerprint;
  t.warm_topology <- String.equal !path "warm";
  (* Migrate the handle's cached plans from the old fingerprint to the
     new one, against the old rank numbering: plans whose trees route
     over the affected edges are dropped (counted as invalidations), as
     is everything when replanning moved the root — surviving one-to-many
     plans would bake the wrong root. Tuned chunks and the old topology
     describe the old fabric and never migrate (a warm replan captures
     the chunks as handle-local re-tune hints on the way past). A
     handle-owned store drops the stale source bucket; a shared one keeps
     it for the other tenants still on the old fingerprint. *)
  let root_moved = Array.length t.gpus > 0 && t.gpus.(root) <> old_root_gpu in
  let classify key stored =
    match (key, stored) with
    | Plan_key _, Compiled plan ->
        let doomed =
          root_moved
          ||
          match affected with
          | `All -> true
          | `Pairs pairs -> List.exists (plan_touches_pair plan) pairs
        in
        if doomed then `Drop else `Copy
    | Chunk_key cls, Chunk chunk ->
        (* The handle's own re-tunes (seeded above) are fresher than the
           pre-fault bucket's cold chunks; don't overwrite them. *)
        (match hint_of_chunk with
        | Some hint when not (Hashtbl.mem t.chunk_hints cls) ->
            Hashtbl.replace t.chunk_hints cls (hint chunk)
        | Some _ | None -> ());
        `Skip
    | _ -> `Skip
  in
  let _copied, dropped =
    Store.migrate t.store ~from_:old_fp ~to_:fp ~classify
      ~drop_source:t.owns_store
  in
  if dropped > 0 then
    Telemetry.incr t.telemetry ~by:dropped "plan.cache.invalidations";
  Log.info (fun m ->
      m "%s: topology mutation (%s) dropped %d cached plan(s); new root gpu %d"
        t.server.Server.name !path dropped t.gpus.(root))

let rank_of_alive t g = rank_of_gpu t.gpus g

let set_link_fault ?replan t ~u ~v state =
  check_usable t;
  if t.server.Server.nvswitch <> None then
    invalid_arg "Blink: link faults are unsupported on NVSwitch machines";
  if u = v then invalid_arg "Blink: link fault on a self pair";
  let ru = rank_of_alive t u and rv = rank_of_alive t v in
  if ru < 0 || rv < 0 then
    invalid_arg "Blink: link fault on a gpu outside the live allocation";
  if Server.pair_links t.server u v = None then
    invalid_arg
      (Printf.sprintf "Blink: no NVLink between gpus %d and %d" u v);
  Hashtbl.replace t.faults (min u v, max u v) state;
  apply_mutation ?replan t ~affected:(`Pairs [ (ru, rv) ])

let degrade_link ?replan t ~u ~v ~factor =
  if factor <= 0. || factor > 1. then
    invalid_arg "Blink.degrade_link: factor must be in (0, 1]";
  set_link_fault ?replan t ~u ~v (Server.Degraded factor)

let fail_link ?replan t ~u ~v = set_link_fault ?replan t ~u ~v Server.Down

let fail_gpu t ~gpu =
  check_usable t;
  if rank_of_alive t gpu < 0 then
    invalid_arg "Blink.fail_gpu: gpu is not in the live allocation";
  if Array.length t.gpus <= 1 then
    invalid_arg "Blink.fail_gpu: cannot drop the last gpu";
  (match t.explicit_root with
  | Some g when g = gpu ->
      invalid_arg "Blink.fail_gpu: cannot drop the pinned root gpu"
  | _ -> ());
  t.gpus <-
    Array.of_list (List.filter (( <> ) gpu) (Array.to_list t.gpus));
  (* Link faults on a dead gpu's pairs are moot; drop them so a later
     replan doesn't validate against ghosts. *)
  let ghost =
    Hashtbl.fold
      (fun ((a, b) as key) _ acc ->
        if a = gpu || b = gpu then key :: acc else acc)
      t.faults []
  in
  List.iter (Hashtbl.remove t.faults) ghost;
  (* Rank renumbering invalidates every cached plan: buffers, trees and
     programs are all in rank space — previous trees are meaningless under
     the new numbering, so a GPU loss always replans cold. *)
  apply_mutation ~replan:`Cold t ~affected:`All

(* ------------------------------------------------------------------ *)
(* Prewarm: one pipeline behind [prewarm], [prewarm_async] and
   [prewarm_await]. [prewarm_start] reads the handle in the calling
   domain; [prewarm_run] is pure — MIAD probes for the size classes that
   need them, then Plan.build codegen — and may run on pool workers;
   [prewarm_finish] performs every handle and store mutation in the
   calling domain, resolving each key's chunk exactly as [plan] does. A
   prewarmed handle is therefore bit-identical to one warmed by
   sequential [plan] calls, whichever domain ran the pure stage. *)

(* The first element of [xs] for each distinct [key x], in order;
   elements whose key is [None] are dropped. *)
let dedup key xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      match key x with
      | Some k when not (Hashtbl.mem seen k) ->
          Hashtbl.add seen k ();
          true
      | Some _ | None -> false)
    xs

type prewarm_start = {
  s_keys : (Plan.collective * int) list;  (* deduplicated, in call order *)
  s_known : (int * int) list;  (* size class -> chunk already decided *)
  s_tune : (int * int * int) list;  (* size class, elems, initial chunk *)
  s_build : (Plan.collective * int) list;  (* keys whose plan is missing *)
}

let prewarm_start t keys =
  check_usable t;
  (* Force the tree memos here: the pure stage then only reads
     [t.bcast_trees]/[t.ar_trees]/[t.root_trees] and never races on
     filling them. The per-root packings are only paid for when a key
     may need them: an all_gather or reduce_scatter, or an all_reduce
     past gate 1 (gate 2 needs the chunk, maybe not tuned yet). *)
  ignore (broadcast_trees t);
  ignore (all_reduce_trees t);
  let needs_root_trees (c, _) =
    match c with
    | Plan.All_gather | Plan.Reduce_scatter -> true
    | Plan.All_reduce -> per_root_cut_wins t
    | Plan.Broadcast | Plan.Reduce | Plan.Gather -> false
  in
  if List.exists needs_root_trees keys then ignore (root_trees t);
  let keys = dedup Option.some keys in
  let s_known, s_tune =
    List.partition_map
      (fun (_, elems) ->
        let cls = size_class ~elems in
        match chunk_source t ~elems with
        | `Stored chunk | `Reuse chunk -> Left (cls, chunk)
        | `Retune init | `Tune init -> Right (cls, elems, init))
      (dedup (fun (_, elems) -> Some (size_class ~elems)) keys)
  in
  (* A key whose chunk is still to be tuned can't be looked up yet (its
     plan key embeds that chunk), so it builds and [prewarm_finish]
     checks the store. A handle that does not publish builds nothing:
     its plans could not be cached. *)
  let cached (collective, elems) =
    match List.assoc_opt (size_class ~elems) s_known with
    | Some chunk ->
        Option.is_some
          (Store.find_opt t.store ~fp:(Fingerprint.id t.fingerprint)
             (Plan_key (collective, elems, chunk)))
    | None -> false
  in
  let s_build =
    if publishes t then List.filter (fun k -> not (cached k)) keys else []
  in
  { s_keys = keys; s_known; s_tune; s_build }

let prewarm_run ?pool t start =
  let tuned =
    Blink_parallel.Pool.map ?pool
      (fun (cls, elems, init) -> (cls, (miad ~init t ~elems).Chunking.chosen))
      start.s_tune
  in
  let chunks = tuned @ start.s_known in
  let built =
    Blink_parallel.Pool.map ?pool
      (fun (collective, elems) ->
        let key = (collective, elems, List.assoc (size_class ~elems) chunks) in
        (key, build_plan t key))
      start.s_build
  in
  (tuned, built)

(* Key by key, in call order, so chunk bookkeeping, insertion (hence
   eviction) order and the miss counters match sequential [plan] calls.
   A class needs tuning here only if it did at the start: a chunk source
   only ever moves from tuning to decided while a job is open. *)
let prewarm_finish t start (tuned, built) =
  check_usable t;
  let fp = Fingerprint.id t.fingerprint in
  List.fold_left
    (fun n (collective, elems) ->
      let chunk =
        resolve_chunk t ~elems ~tune:(fun ~init:_ ->
            List.assoc (size_class ~elems) tuned)
      in
      let key = (collective, elems, chunk) in
      match List.assoc_opt key built with
      | Some plan
        when Option.is_none (Store.find_opt t.store ~fp (Plan_key key)) ->
          let evicted =
            Store.insert_built t.store ~fp (Plan_key key) (Compiled plan)
          in
          count_miss t ~evicted;
          n + 1
      | Some _ | None -> n)
    0 start.s_keys

let rec prewarm ?pool ?(contingencies = `None) t keys =
  let start = prewarm_start t keys in
  prewarm_finish t start (prewarm_run ?pool t start)
  + prewarm_contingencies ?pool ~contingencies t keys

(* Background contingency plans: precompute the full "one link down"
   post-fault state — topology packing, tuned chunks and the requested
   compiled plans — for each NVLink pair of the live fabric, keyed under
   the post-fault fingerprint in the handle's store. Everything goes
   through the {e cold} construction path (the pure [plan_topology] on
   pool workers, then a scratch tenant handle created directly on the
   degraded fabric), so the stored entries are bit-identical to what a
   fresh tenant born on that topology would build — exactly what
   [apply_mutation]'s contingency lookup and isomorphic tenants expect.
   Automorphic failures collapse into one fingerprint class
   ([Fingerprint] quotients by GPU relabeling), so a DGX-1V costs a
   handful of classes, not one per link. *)
and prewarm_contingencies ?pool ~contingencies t keys =
  let pairs =
    match contingencies with
    | `None -> []
    | `Pairs ps -> ps
    | `All ->
        if t.server.Server.nvswitch <> None then []
        else List.map (fun (u, v, _) -> (u, v)) t.server.Server.nvlinks
  in
  if pairs = [] then 0
  else if not (publishes t) then 0
  else begin
    let live g = rank_of_gpu t.gpus g >= 0 in
    let current = link_faults t in
    let root_rank = pinned_rank ~gpus:t.gpus t.explicit_root in
    (* One candidate per distinct post-fault fingerprint class whose
       surviving graph still spans the allocation. *)
    let seen = Hashtbl.create 8 in
    let classes =
      List.filter_map
        (fun (u, v) ->
          let u, v = (min u v, max u v) in
          if u = v || (not (live u)) || not (live v) then None
          else if Server.pair_links t.server u v = None then None
          else if Hashtbl.find_opt t.faults (u, v) = Some Server.Down then
            None
          else begin
            let faults =
              Server.normalize_faults (current @ [ ((u, v), Server.Down) ])
            in
            let fpid =
              Fingerprint.id
                (Fingerprint.make ~planner:(Planner.name t.planner)
                   ?epsilon:t.epsilon ?threshold:t.threshold ?root:root_rank
                   t.server ~gpus:t.gpus ~faults)
            in
            if Hashtbl.mem seen fpid then None
            else begin
              Hashtbl.add seen fpid ();
              let graph =
                Server.nvlink_digraph ~faults t.server ~gpus:t.gpus
              in
              let root =
                match root_rank with
                | Some r -> r
                | None -> Treegen.best_root graph
              in
              if
                Array.length t.gpus > 1
                && not (Digraph.is_connected_from graph ~root)
              then None (* a partitioning failure has no contingency plan *)
              else Some (fpid, faults)
            end
          end)
        pairs
    in
    (* Stage 1: pack the missing post-fault topologies on the pool (pure
       work), insert from the calling domain. *)
    let missing =
      List.filter
        (fun (fpid, _) ->
          Option.is_none (Store.find_opt t.store ~fp:fpid Topo_key))
        classes
    in
    let topos =
      Blink_parallel.Pool.map ?pool
        (fun (fpid, faults) ->
          let fabric, graph, kind, root =
            plan_topology ?epsilon:t.epsilon ?threshold:t.threshold
              ~telemetry:Telemetry.disabled ~planner:t.planner
              ~on_disconnected:`Partitioned t.server ~gpus:t.gpus ~faults
              ~root_gpu:t.explicit_root
          in
          ( fpid,
            Topo
              { t_fabric = fabric; t_graph = graph; t_kind = kind;
                t_root = root } ))
        missing
    in
    List.iter (fun (fpid, topo) -> Store.add t.store ~fp:fpid Topo_key topo) topos;
    if topos <> [] then
      Telemetry.incr t.telemetry ~by:(List.length topos)
        "plan.contingency.prewarmed";
    (* Stage 2: tune + compile each class's plans through a scratch
       tenant handle born on the degraded fabric — the cold create path,
       sharing this handle's store, so every entry lands under the
       post-fault fingerprint exactly as a fresh tenant would build it. *)
    List.fold_left
      (fun acc (_fpid, faults) ->
        let scratch =
          create ?root:root_rank ?epsilon:t.epsilon ?threshold:t.threshold
            ~telemetry:Telemetry.disabled ~link_faults:faults ~store:t.store
            ~planner:t.planner t.server ~gpus:t.gpus
        in
        acc + prewarm ?pool scratch keys)
      0 classes
  end

(* ------------------------------------------------------------------ *)
(* Async prewarm: the same pipeline, relocated in time. [prewarm_async]
   runs the start stage and submits the pure stage as one pool future;
   [prewarm_await] redeems it and runs the finish stage. Between the two
   calls the caller is free to run [Plan.execute] on live plans while
   tuning and codegen for the next keys proceed on a worker — the paper's
   generate-once/run-always split, pipelined. On a sequential pool (or
   none) the future runs eagerly inside [prewarm_async]. *)

type prewarm_job = {
  j_start : prewarm_start;
  j_future :
    ((int * int) list * (plan_key * Plan.t) list) Blink_parallel.Pool.future;
  mutable j_awaited : bool;
}

let prewarm_async ?pool t keys =
  let start = prewarm_start t keys in
  let run () = prewarm_run t start in
  let future =
    match pool with
    | Some pool -> Blink_parallel.Pool.async pool run
    | None ->
        (* No pool: run eagerly, wrapped as an already-finished future
           through a 1-domain pool's degenerate async. *)
        Blink_parallel.Pool.with_pool ~domains:1 (fun p ->
            Blink_parallel.Pool.async p run)
  in
  t.prewarm_inflight <- t.prewarm_inflight + 1;
  { j_start = start; j_future = future; j_awaited = false }

let prewarm_await t job =
  if job.j_awaited then
    invalid_arg "Blink.prewarm_await: job already awaited";
  job.j_awaited <- true;
  t.prewarm_inflight <- t.prewarm_inflight - 1;
  prewarm_finish t job.j_start (Blink_parallel.Pool.await job.j_future)
