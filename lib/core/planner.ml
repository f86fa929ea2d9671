type backend = Treegen | Lp_flow

let name = function Treegen -> "treegen" | Lp_flow -> "lp-flow"
let all = [ Treegen; Lp_flow ]
let default = Treegen

(* lp-flow, price-and-branch: column generation's final master, rounded
   by TreeGen's ILP over every column it generated. Passed as a
   zero-weight warm start, the columns join the ILP's support whatever
   their master weight, and seed only the zero incumbent. A fabric that
   does not span from [root] gives the empty packing TreeGen returns, so
   Blink's disconnection handling is backend-independent. *)
let lp_flow ?threshold ?telemetry g ~root ~undirected =
  let master, _bound = Treegen.column_generation g ~root ~undirected in
  let columns =
    List.map (fun t -> { t with Treegen.weight = 0. }) master.Treegen.trees
  in
  Treegen.minimize ?threshold ~warm_start:columns ?telemetry g master

let plan b ?epsilon ?threshold ?telemetry g ~root ~undirected =
  match b with
  | Treegen -> Treegen.plan ?epsilon ?threshold ?telemetry g ~root ~undirected
  | Lp_flow -> lp_flow ?threshold ?telemetry g ~root ~undirected
