let automorphisms (server : Server.t) =
  Blink_graph.Automorphism.automorphisms ~n:server.Server.n_gpus
    ~weight:(fun u v -> if u = v then 0. else Server.pair_weight server u v)

(* The group is small and reused across every figure; cache per server name. *)
let autos_cache : (string, int array list) Hashtbl.t = Hashtbl.create 4

let cached_autos server =
  match Hashtbl.find_opt autos_cache server.Server.name with
  | Some autos -> autos
  | None ->
      let autos = automorphisms server in
      Hashtbl.replace autos_cache server.Server.name autos;
      autos

let nvlink_connected server subset =
  match subset with
  | [] -> true
  | first :: _ ->
      let verts = Array.of_list subset in
      let k = Array.length verts in
      let seen = Hashtbl.create 8 in
      let rec visit g =
        if not (Hashtbl.mem seen g) then begin
          Hashtbl.replace seen g ();
          Array.iter
            (fun h -> if h <> g && Server.pair_capacity server g h > 0 then visit h)
            verts
        end
      in
      visit first;
      Hashtbl.length seen = k

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let canonical_key server subset =
  let verts = Array.of_list subset in
  let k = Array.length verts in
  if k > 8 then invalid_arg "Alloc.canonical_key: allocation larger than 8";
  let perms = permutations (List.init k Fun.id) in
  (* Format each pair weight once, not once per permutation. *)
  let cell =
    Array.map
      (fun u ->
        Array.map
          (fun v -> Printf.sprintf "%.1f;" (Server.pair_weight server u v))
          verts)
      verts
  in
  let buf = Buffer.create 64 in
  let key perm =
    let p = Array.of_list perm in
    Buffer.clear buf;
    for i = 0 to k - 1 do
      for j = 0 to k - 1 do
        if i <> j then Buffer.add_string buf cell.(p.(i)).(p.(j))
      done
    done;
    Buffer.contents buf
  in
  match perms with
  | [] -> ""
  | first :: rest ->
      List.fold_left
        (fun best perm ->
          let candidate = key perm in
          if candidate < best then candidate else best)
        (key first) rest

let class_reps server ~size ~filter =
  let all = Blink_graph.Automorphism.subsets ~n:server.Server.n_gpus ~size in
  let table = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if filter s then begin
        let key = canonical_key server s in
        match Hashtbl.find_opt table key with
        | Some existing when compare existing s <= 0 -> ()
        | _ -> Hashtbl.replace table key s
      end)
    all;
  Hashtbl.fold (fun _ rep acc -> rep :: acc) table [] |> List.sort compare

let unique_configs server ~sizes =
  List.concat_map
    (fun size -> class_reps server ~size ~filter:(nvlink_connected server))
    sizes

let all_configs server ~sizes =
  List.concat_map (fun size -> class_reps server ~size ~filter:(fun _ -> true)) sizes

let orbit_representatives server ~size =
  let autos = cached_autos server in
  let all = Blink_graph.Automorphism.subsets ~n:server.Server.n_gpus ~size in
  Blink_graph.Automorphism.orbits ~autos all
  |> List.map (function
       | rep :: _ -> rep
       | [] -> assert false (* orbits are non-empty by construction *))
  |> List.sort compare

let class_size server subset =
  let size = List.length subset in
  let key = canonical_key server subset in
  let all = Blink_graph.Automorphism.subsets ~n:server.Server.n_gpus ~size in
  List.length (List.filter (fun s -> canonical_key server s = key) all)

let to_string subset = String.concat "," (List.map string_of_int subset)
