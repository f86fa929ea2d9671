type t = {
  name : string;
  n_gpus : int;
  nvlinks : (int * int * Link.kind) list;
  nvswitch : Link.kind option;
  pcie_switches : int list list;
  switches_per_cpu : int;
  digest : string;
}

type link_state = Degraded of float | Down

type faults = ((int * int) * link_state) list

(* Normalize fault keys to (min, max) and validate factors; later entries
   for the same pair win, so callers can overwrite a degradation. *)
let normalize_faults faults =
  List.fold_left
    (fun acc ((u, v), state) ->
      if u = v then invalid_arg "Server: link fault on a self pair";
      (match state with
      | Degraded f when f <= 0. || f > 1. ->
          invalid_arg "Server: degradation factor must be in (0, 1]"
      | Degraded _ | Down -> ());
      ((min u v, max u v), state) :: List.remove_assoc (min u v, max u v) acc)
    [] faults

let fault_state faults u v = List.assoc_opt (min u v, max u v) faults

(* Every construction site goes through [make], so the digest of the whole
   description is computed exactly once per server. The bytes hashed here
   are part of every plan-store key (fingerprints prefix their keys with
   this digest), so they must not change. *)
let make ~name ~n_gpus ~nvlinks ~nvswitch ~pcie_switches ~switches_per_cpu =
  let b = Buffer.create 256 in
  Buffer.add_string b name;
  Printf.bprintf b "|%d|" n_gpus;
  List.iter
    (fun (u, v, k) -> Printf.bprintf b "%d-%d:%d;" u v (Link.tag k))
    nvlinks;
  (match nvswitch with
  | None -> Buffer.add_string b "|sw:-|"
  | Some k -> Printf.bprintf b "|sw:%d|" (Link.tag k));
  List.iter
    (fun g ->
      List.iter (fun gpu -> Printf.bprintf b "%d," gpu) g;
      Buffer.add_char b ';')
    pcie_switches;
  Printf.bprintf b "|%d" switches_per_cpu;
  let digest = Digest.to_hex (Digest.string (Buffer.contents b)) in
  { name; n_gpus; nvlinks; nvswitch; pcie_switches; switches_per_cpu; digest }

let digest t = t.digest

(* The 16 NVLink pairs of the DGX-1 hybrid cube-mesh: two complete quads
   plus the quad-to-quad matching. *)
let cube_mesh_pairs =
  [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3);
    (4, 5); (4, 6); (4, 7); (5, 6); (5, 7); (6, 7);
    (0, 4); (1, 5); (2, 6); (3, 7) ]

let dgx1_pcie = [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ]; [ 6; 7 ] ]

let dgx1p =
  make ~name:"dgx-1p" ~n_gpus:8
    ~nvlinks:(List.map (fun (u, v) -> (u, v, Link.Nvlink_gen1)) cube_mesh_pairs)
    ~nvswitch:None ~pcie_switches:dgx1_pcie ~switches_per_cpu:2

(* DGX-1V: same 16 pairs, all gen2; eight pairs carry a second NVLink
   (per the public nvidia-smi topology of the DGX-1V / AWS p3.16xlarge). *)
let dgx1v_double_pairs =
  [ (0, 3); (0, 4); (1, 2); (2, 3); (1, 5); (4, 7); (5, 6); (6, 7) ]

let dgx1v =
  let single = List.map (fun (u, v) -> (u, v, Link.Nvlink_gen2)) cube_mesh_pairs in
  let extra =
    List.map (fun (u, v) -> (u, v, Link.Nvlink_gen2)) dgx1v_double_pairs
  in
  make ~name:"dgx-1v" ~n_gpus:8 ~nvlinks:(single @ extra) ~nvswitch:None
    ~pcie_switches:dgx1_pcie ~switches_per_cpu:2

let dgx2 =
  make ~name:"dgx-2" ~n_gpus:16 ~nvlinks:[] ~nvswitch:(Some Link.Nvlink_gen2)
    ~pcie_switches:(List.init 8 (fun i -> [ 2 * i; (2 * i) + 1 ]))
    ~switches_per_cpu:4

let custom ~name ~n_gpus ?(nvlinks = []) ?nvswitch ?pcie_switches
    ?switches_per_cpu () =
  if n_gpus <= 0 then invalid_arg "Server.custom: need at least one GPU";
  if nvlinks <> [] && nvswitch <> None then
    invalid_arg "Server.custom: nvlinks and nvswitch are mutually exclusive";
  let nvlinks =
    List.map
      (fun (u, v, kind) ->
        if u < 0 || u >= n_gpus || v < 0 || v >= n_gpus then
          invalid_arg "Server.custom: nvlink endpoint out of range";
        if u = v then invalid_arg "Server.custom: self link";
        (min u v, max u v, kind))
      nvlinks
  in
  let pcie_switches =
    match pcie_switches with
    | Some groups -> groups
    | None ->
        (* Pair consecutive GPUs per switch by default. *)
        List.init ((n_gpus + 1) / 2) (fun i ->
            List.filter (fun g -> g < n_gpus) [ 2 * i; (2 * i) + 1 ])
  in
  let seen = Array.make n_gpus false in
  List.iter
    (List.iter (fun g ->
         if g < 0 || g >= n_gpus then
           invalid_arg "Server.custom: pcie group member out of range";
         if seen.(g) then invalid_arg "Server.custom: gpu in two pcie groups";
         seen.(g) <- true))
    pcie_switches;
  if not (Array.for_all Fun.id seen) then
    invalid_arg "Server.custom: pcie groups must cover every gpu";
  let switches_per_cpu =
    Option.value switches_per_cpu
      ~default:(max 1 (List.length pcie_switches / 2))
  in
  make ~name ~n_gpus ~nvlinks ~nvswitch ~pcie_switches ~switches_per_cpu

let pair_links t u v =
  let u, v = (min u v, max u v) in
  let matching =
    List.filter (fun (a, b, _) -> a = u && b = v) t.nvlinks
  in
  match matching with
  | [] -> None
  | (_, _, kind) :: _ -> Some (kind, List.length matching)

let pair_capacity t u v =
  match pair_links t u v with None -> 0 | Some (_, k) -> k

let nvlink_bandwidth t =
  match (t.nvswitch, t.nvlinks) with
  | Some kind, _ -> Link.bandwidth kind
  | None, (_, _, kind) :: _ -> Link.bandwidth kind
  | None, [] -> 0.

let pair_weight t u v =
  match t.nvswitch with
  | Some kind -> if u <> v then 6. *. Link.bandwidth kind else 0.
  | None -> (
      match pair_links t u v with
      | None -> 0.
      | Some (kind, k) -> Float.of_int k *. Link.bandwidth kind)

let check_alloc t gpus =
  let seen = Array.make t.n_gpus false in
  Array.iter
    (fun g ->
      if g < 0 || g >= t.n_gpus then
        invalid_arg (Printf.sprintf "%s: gpu %d out of range" t.name g);
      if seen.(g) then invalid_arg "Server: duplicate gpu in allocation";
      seen.(g) <- true)
    gpus

let nvlink_digraph ?(faults = []) t ~gpus =
  check_alloc t gpus;
  let faults = normalize_faults faults in
  if faults <> [] && t.nvswitch <> None then
    invalid_arg "Server.nvlink_digraph: link faults unsupported on NVSwitch";
  let k = Array.length gpus in
  let index = Hashtbl.create 8 in
  Array.iteri (fun i g -> Hashtbl.replace index g i) gpus;
  let g = Blink_graph.Digraph.create ~n:k in
  (match t.nvswitch with
  | Some kind ->
      (* Non-blocking switch: each GPU's 6-link attach bandwidth is shared
         over its (k-1) peers; each ordered pair gets one edge with that
         share so the sum of a vertex's out-capacities equals the attach
         bandwidth. *)
      if k > 1 then begin
        let per_peer = 6. *. Link.bandwidth kind /. Float.of_int (k - 1) in
        for i = 0 to k - 1 do
          for j = 0 to k - 1 do
            if i <> j then
              ignore
                (Blink_graph.Digraph.add_edge ~tag:(Link.tag kind) g ~src:i
                   ~dst:j ~cap:per_peer)
          done
        done
      end
  | None ->
      List.iter
        (fun (u, v, kind) ->
          match (Hashtbl.find_opt index u, Hashtbl.find_opt index v) with
          | Some i, Some j -> (
              (* A fault applies to the whole duplex pair — both directions
                 together, keeping the graph symmetric for the undirected
                 packing. *)
              match fault_state faults u v with
              | Some Down -> ()
              | Some (Degraded factor) ->
                  ignore
                    (Blink_graph.Digraph.add_bidi ~tag:(Link.tag kind) g i j
                       ~cap:(Link.bandwidth kind *. factor))
              | None ->
                  ignore
                    (Blink_graph.Digraph.add_bidi ~tag:(Link.tag kind) g i j
                       ~cap:(Link.bandwidth kind)))
          | _ -> ())
        t.nvlinks);
  g

let switch_of_gpu t gpu =
  let rec go idx = function
    | [] -> invalid_arg (Printf.sprintf "%s: gpu %d has no PCIe switch" t.name gpu)
    | group :: rest -> if List.mem gpu group then idx else go (idx + 1) rest
  in
  go 0 t.pcie_switches

let cpu_of_switch t sw = if sw < t.switches_per_cpu then 0 else 1

let pp ppf t =
  Format.fprintf ppf "%s: %d GPUs, %d NVLinks%s" t.name t.n_gpus
    (List.length t.nvlinks)
    (match t.nvswitch with Some _ -> " (NVSwitch)" | None -> "")
