(* The NCCL-shaped communicator front end, and custom topologies through
   the whole stack. *)

module Server = Blink_topology.Server
module Link = Blink_topology.Link
module Comm = Blink_core.Comm
module Blink = Blink_core.Blink

let inputs k elems =
  Array.init k (fun r ->
      Array.init elems (fun i -> Float.of_int (((i * 3) + (r * 7)) mod 11)))

let sum_of k elems =
  let acc = Array.make elems 0. in
  Array.iter (Array.iteri (fun i x -> acc.(i) <- acc.(i) +. x)) (inputs k elems);
  acc

let array_eq a b =
  Array.length a = Array.length b
  && Array.for_all Fun.id (Array.mapi (fun i x -> Float.abs (x -. b.(i)) < 1e-6) a)

let comm () = Comm.init Server.dgx1v ~gpus:[| 1; 4; 5; 6 |]

let test_all_reduce () =
  let c = comm () in
  let elems = 5_000 in
  let { Comm.value; seconds } = Comm.all_reduce c (inputs 4 elems) in
  Alcotest.(check bool) "positive time" true (seconds > 0.);
  let want = sum_of 4 elems in
  Array.iter
    (fun got -> Alcotest.(check bool) "sum everywhere" true (array_eq want got))
    value

let test_broadcast () =
  let c = comm () in
  let data = Array.init 3_000 (fun i -> Float.of_int (i mod 17)) in
  let { Comm.value; _ } = Comm.broadcast c data in
  Array.iter
    (fun got -> Alcotest.(check bool) "copied" true (array_eq data got))
    value

let test_reduce () =
  let c = comm () in
  let elems = 2_000 in
  let { Comm.value; _ } = Comm.reduce c (inputs 4 elems) in
  Alcotest.(check bool) "root sum" true (array_eq (sum_of 4 elems) value)

let test_gather_all_gather () =
  let c = comm () in
  let elems = 1_200 in
  let ins = inputs 4 elems in
  let { Comm.value = gathered; _ } = Comm.gather c ins in
  Alcotest.(check int) "length" (4 * elems) (Array.length gathered);
  for r = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "segment %d" r)
      true
      (array_eq ins.(r) (Array.sub gathered (r * elems) elems))
  done;
  let { Comm.value = everywhere; _ } = Comm.all_gather c ins in
  Array.iter
    (fun got -> Alcotest.(check bool) "all_gather" true (array_eq gathered got))
    everywhere

let test_reduce_scatter () =
  let c = comm () in
  let elems = 4_000 in
  let { Comm.value; _ } = Comm.reduce_scatter c (inputs 4 elems) in
  let want = sum_of 4 elems in
  Array.iteri
    (fun r seg ->
      let off = r * elems / 4 in
      Alcotest.(check bool)
        (Printf.sprintf "segment %d" r)
        true
        (array_eq (Array.sub want off (Array.length seg)) seg))
    value

let test_input_validation () =
  let c = comm () in
  Alcotest.(check bool) "wrong rank count" true
    (try ignore (Comm.all_reduce c [| [| 1. |] |]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "length mismatch" true
    (try ignore (Comm.all_reduce c [| [| 1. |]; [| 1. |]; [| 1. |]; [| 1.; 2. |] |]); false
     with Invalid_argument _ -> true)

let test_inputs_not_mutated () =
  let c = comm () in
  let ins = inputs 4 500 in
  let copies = Array.map Array.copy ins in
  ignore (Comm.all_reduce c ins);
  Array.iteri
    (fun r original ->
      Alcotest.(check bool) "untouched" true (array_eq original copies.(r)))
    ins

(* ------------------------------------------------------------------ *)
(* Custom topologies through the whole stack *)

(* A hypothetical 4-GPU machine: a square of single links plus one diagonal
   doubled link. *)
let square =
  Server.custom ~name:"square4" ~n_gpus:4
    ~nvlinks:
      [ (0, 1, Link.Nvlink_gen2); (1, 2, Link.Nvlink_gen2);
        (2, 3, Link.Nvlink_gen2); (3, 0, Link.Nvlink_gen2);
        (0, 2, Link.Nvlink_gen2); (0, 2, Link.Nvlink_gen2) ]
    ()

let test_custom_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "self link" true
    (bad (fun () ->
         Server.custom ~name:"x" ~n_gpus:2 ~nvlinks:[ (0, 0, Link.Nvlink_gen1) ] ()));
  Alcotest.(check bool) "out of range" true
    (bad (fun () ->
         Server.custom ~name:"x" ~n_gpus:2 ~nvlinks:[ (0, 5, Link.Nvlink_gen1) ] ()));
  Alcotest.(check bool) "pcie not partition" true
    (bad (fun () -> Server.custom ~name:"x" ~n_gpus:3 ~pcie_switches:[ [ 0; 1 ] ] ()));
  Alcotest.(check bool) "nvlinks xor nvswitch" true
    (bad (fun () ->
         Server.custom ~name:"x" ~n_gpus:2
           ~nvlinks:[ (0, 1, Link.Nvlink_gen1) ]
           ~nvswitch:Link.Nvlink_gen2 ()))

let test_custom_normalizes_pairs () =
  let s =
    Server.custom ~name:"rev" ~n_gpus:2 ~nvlinks:[ (1, 0, Link.Nvlink_gen1) ] ()
  in
  Alcotest.(check int) "pair capacity" 1 (Server.pair_capacity s 0 1)

let test_custom_planning () =
  (* Optimal broadcast rate from gpu 0 on the square: gpu 0 has 4 egress
     units (1+1+2-ish): min cut to 1 and 3 is 2 units each, to 2 is 4; so
     the rate is bounded by 2 units... verified against max-flow. *)
  let g = Server.nvlink_digraph square ~gpus:(Array.init 4 Fun.id) in
  let p = Blink_core.Treegen.plan g ~root:0 ~undirected:false in
  Alcotest.(check (float 1e-6)) "rate equals max-flow optimum"
    (Blink_graph.Maxflow.broadcast_rate g ~root:0)
    p.Blink_core.Treegen.rate;
  Alcotest.(check bool) "feasible" true (Blink_core.Treegen.feasible g p)

let test_custom_end_to_end () =
  let c = Comm.init square ~gpus:(Array.init 4 Fun.id) in
  let elems = 2_500 in
  let { Comm.value; seconds } = Comm.all_reduce c (inputs 4 elems) in
  Alcotest.(check bool) "positive time" true (seconds > 0.);
  let want = sum_of 4 elems in
  Array.iter
    (fun got -> Alcotest.(check bool) "sum" true (array_eq want got))
    value

let test_custom_nvswitch () =
  let s = Server.custom ~name:"switchy" ~n_gpus:6 ~nvswitch:Link.Nvlink_gen2 () in
  let c = Comm.init s ~gpus:(Array.init 6 Fun.id) in
  let { Comm.value; _ } = Comm.all_reduce c (inputs 6 800) in
  let want = sum_of 6 800 in
  Array.iter
    (fun got -> Alcotest.(check bool) "sum over switch" true (array_eq want got))
    value

let () =
  Alcotest.run "comm"
    [
      ( "collectives",
        [
          Alcotest.test_case "all_reduce" `Quick test_all_reduce;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "reduce" `Quick test_reduce;
          Alcotest.test_case "gather / all_gather" `Quick test_gather_all_gather;
          Alcotest.test_case "reduce_scatter" `Quick test_reduce_scatter;
          Alcotest.test_case "validation" `Quick test_input_validation;
          Alcotest.test_case "inputs immutable" `Quick test_inputs_not_mutated;
        ] );
      ( "custom topology",
        [
          Alcotest.test_case "validation" `Quick test_custom_validation;
          Alcotest.test_case "pair normalization" `Quick test_custom_normalizes_pairs;
          Alcotest.test_case "planning" `Quick test_custom_planning;
          Alcotest.test_case "end to end" `Quick test_custom_end_to_end;
          Alcotest.test_case "nvswitch machine" `Quick test_custom_nvswitch;
        ] );
    ]
