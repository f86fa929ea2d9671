module Digraph = Blink_graph.Digraph
module Maxflow = Blink_graph.Maxflow

let log_src = Logs.Src.create "blink.planner" ~doc:"Blink planner backends"

module Log = (val Logs.src_log log_src : Logs.LOG)

let tol = 1e-9

type backend = Treegen | Lp_flow

let name = function Treegen -> "treegen" | Lp_flow -> "lp-flow"
let all = [ Treegen; Lp_flow ]
let default = Treegen

(* lp-flow's candidate pool: trees deduplicated by the item set they
   consume (orientation differences that use the same duplex links are
   one column). *)
module Pool = struct
  type t = {
    model : Treegen.model;
    seen : (int list, unit) Hashtbl.t;
    mutable trees : int list list;  (* reverse registration order *)
  }

  let create model = { model; seen = Hashtbl.create 64; trees = [] }

  let add p edges =
    let key = List.sort compare (Treegen.model_items p.model edges) in
    if Hashtbl.mem p.seen key then false
    else begin
      Hashtbl.add p.seen key ();
      p.trees <- edges :: p.trees;
      true
    end

  let candidates p = Array.of_list (List.rev p.trees)
end

(* Column generation converges long before these caps on every fabric
   we plan (DGX class: < 20 rounds); they bound degenerate inputs. *)
let max_rounds = 64
let price_retries = 6

let lp_flow ?threshold g ~root ~undirected =
  (* Single-vertex or cut-off-from-root fabrics: the empty packing
     TreeGen returns, so Blink's disconnection handling is
     backend-independent. *)
  if Digraph.n_vertices g <= 1 || not (Digraph.is_connected_from g ~root) then
    { Treegen.root; trees = []; rate = 0.; optimal = 0.; undirected }
  else
    let m = Treegen.model g ~undirected in
    let caps = Treegen.model_caps m in
    let n_items = Array.length caps in
    (* Edmonds' bound certifies directed optimality, so the loop can
       stop as soon as the master LP reaches it. No such closed-form
       bound undirected: run until columns stop improving. *)
    let target =
      if undirected then infinity else Maxflow.broadcast_rate g ~root
    in
    let pool = Pool.create m in
    (match
       Treegen.model_tree m ~root
         ~price:(Array.map (fun c -> 1. /. c) caps)
     with
    | Some t -> ignore (Pool.add pool t)
    | None -> ());
    List.iter
      (fun t -> ignore (Pool.add pool t))
      (Treegen.integral_trees m ~root);
    let solve () =
      let candidates = Pool.candidates pool in
      let items = Array.map (Treegen.model_items m) candidates in
      let obj, sol = Treegen.candidate_lp ~caps ~candidates:items in
      (candidates, items, obj, sol)
    in
    let rec generate round ((_, items, obj, sol) as state) =
      if round >= max_rounds || obj +. tol >= target then state
      else begin
        let load = Array.make n_items 0. in
        Array.iteri
          (fun ci its ->
            List.iter (fun i -> load.(i) <- load.(i) +. sol.(ci)) its)
          items;
        (* Price items by their congestion in the fractional optimum,
           normalized by capacity so the oracle prefers uncongested
           fat links. A growing deterministic perturbation breaks
           ties toward unexplored trees when the plain congestion
           price keeps proposing known columns. *)
        let fresh = ref false in
        let tries = ref 0 in
        while (not !fresh) && !tries < price_retries do
          let jitter = 1e-3 *. Float.of_int (!tries + 1) in
          let price =
            Array.init n_items (fun i ->
                (1e-6
                +. (load.(i) /. caps.(i))
                +. jitter
                   *. Float.of_int (((i + !tries + round) * 7919) mod 97)
                   /. 97.)
                /. caps.(i))
          in
          (match Treegen.model_tree m ~root ~price with
          | Some t when Pool.add pool t -> fresh := true
          | Some _ | None -> ());
          incr tries
        done;
        if !fresh then generate (round + 1) (solve ()) else state
      end
    in
    let candidates, _, obj, sol = generate 0 (solve ()) in
    let trees =
      Array.to_list
        (Array.mapi
           (fun i edges -> { Treegen.edges; weight = sol.(i) })
           candidates)
      |> List.filter (fun t -> t.Treegen.weight > tol)
    in
    let rate =
      List.fold_left (fun a t -> a +. t.Treegen.weight) 0. trees
    in
    Log.debug (fun f ->
        f "lp-flow root=%d undirected=%b columns=%d rate=%.3f" root
          undirected (Array.length candidates) rate);
    let fractional =
      {
        Treegen.root;
        trees;
        rate;
        (* Directed: Edmonds' bound (matches TreeGen's [optimal]
           semantics). Undirected: the master-LP optimum over the
           generated columns, a certified achievable rate. *)
        optimal = (if undirected then obj else target);
        undirected;
      }
    in
    Treegen.minimize ?threshold g fractional

let plan b ?epsilon ?threshold ?telemetry g ~root ~undirected =
  match b with
  | Treegen -> Treegen.plan ?epsilon ?threshold ?telemetry g ~root ~undirected
  | Lp_flow -> lp_flow ?threshold g ~root ~undirected
