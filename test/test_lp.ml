module Simplex = Blink_lp.Simplex
module Ilp = Blink_lp.Ilp

let check_float = Alcotest.(check (float 1e-6))

let objective = function
  | Simplex.Optimal { objective; _ } -> objective
  | Simplex.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"

(* ------------------------------------------------------------------ *)
(* Simplex *)

let test_simplex_2var () =
  (* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18: classic, opt 36. *)
  let status =
    Simplex.maximize ~c:[| 3.; 5. |]
      ~a:[| [| 1.; 0. |]; [| 0.; 2. |]; [| 3.; 2. |] |]
      ~b:[| 4.; 12.; 18. |]
  in
  check_float "objective" 36. (objective status);
  match status with
  | Simplex.Optimal { solution; _ } ->
      check_float "x" 2. solution.(0);
      check_float "y" 6. solution.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_phase1 () =
  (* max x s.t. -x <= -2 (i.e. x >= 2), x <= 5: needs artificial vars. *)
  let status =
    Simplex.maximize ~c:[| 1. |] ~a:[| [| -1. |]; [| 1. |] |] ~b:[| -2.; 5. |]
  in
  check_float "objective" 5. (objective status)

let test_simplex_infeasible () =
  (* x >= 3 and x <= 1 *)
  let status =
    Simplex.maximize ~c:[| 1. |] ~a:[| [| -1. |]; [| 1. |] |] ~b:[| -3.; 1. |]
  in
  Alcotest.(check bool) "infeasible" true (status = Simplex.Infeasible)

let test_simplex_unbounded () =
  let status = Simplex.maximize ~c:[| 1.; 0. |] ~a:[| [| 0.; 1. |] |] ~b:[| 1. |] in
  Alcotest.(check bool) "unbounded" true (status = Simplex.Unbounded)

let test_simplex_minimize () =
  (* min x + y s.t. x + y >= 2 (as -x - y <= -2) *)
  let status =
    Simplex.minimize ~c:[| 1.; 1. |] ~a:[| [| -1.; -1. |] |] ~b:[| -2. |]
  in
  match status with
  | Simplex.Optimal { objective; _ } -> check_float "min" 2. objective
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_degenerate () =
  (* Redundant constraints should not break Bland's rule. *)
  let status =
    Simplex.maximize ~c:[| 1.; 1. |]
      ~a:[| [| 1.; 1. |]; [| 1.; 1. |]; [| 2.; 2. |]; [| 1.; 0. |] |]
      ~b:[| 4.; 4.; 8.; 4. |]
  in
  check_float "degenerate objective" 4. (objective status)

let feasible_point ~a ~b x =
  Array.for_all Fun.id
    (Array.mapi
       (fun i row ->
         let lhs = ref 0. in
         Array.iteri (fun j aij -> lhs := !lhs +. (aij *. x.(j))) row;
         !lhs <= b.(i) +. 1e-6)
       a)
  && Array.for_all (fun xi -> xi >= -1e-9) x

let prop_simplex_sound =
  QCheck.Test.make ~name:"simplex optimum feasible and dominant" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed + 11 |] in
      let n = 2 + Random.State.int rng 3 in
      let m = 2 + Random.State.int rng 4 in
      let c = Array.init n (fun _ -> Float.of_int (Random.State.int rng 7)) in
      let a =
        Array.init m (fun _ ->
            Array.init n (fun _ -> Float.of_int (Random.State.int rng 5)))
      in
      (* Ensure boundedness: every variable capped. *)
      let a = Array.append a (Array.init n (fun j -> Array.init n (fun i -> if i = j then 1. else 0.))) in
      let b = Array.init (m + n) (fun _ -> 1. +. Float.of_int (Random.State.int rng 9)) in
      match Simplex.maximize ~c ~a ~b with
      | Simplex.Optimal { objective; solution } ->
          if not (feasible_point ~a ~b solution) then false
          else begin
            (* Compare against random feasible points found by scaling. *)
            let dominated = ref true in
            for _ = 1 to 30 do
              let x = Array.init n (fun _ -> Random.State.float rng 10.) in
              (* shrink into feasibility *)
              let factor = ref 1. in
              Array.iteri
                (fun i row ->
                  let lhs = ref 0. in
                  Array.iteri (fun j aij -> lhs := !lhs +. (aij *. x.(j))) row;
                  if !lhs > b.(i) then factor := Float.min !factor (b.(i) /. !lhs))
                a;
              let x = Array.map (fun v -> v *. !factor) x in
              let value = ref 0. in
              Array.iteri (fun j cj -> value := !value +. (cj *. x.(j))) c;
              if !value > objective +. 1e-6 then dominated := false
            done;
            !dominated
          end
      | Simplex.Infeasible -> false (* origin is feasible *)
      | Simplex.Unbounded -> false (* variables are capped *))

(* LP duality: max c.x s.t. Ax <= b and its dual min b.y s.t. -A^T y <= -c
   (y >= 0) reach the same optimum. Sparse 0/1 or small-integer rows and
   right-hand sides in 0..3 give degenerate vertices and tied ratios; the
   dual's negative right-hand sides (one per positive c_j) drive phase I.
   An all-ones row keeps the primal bounded, hence the dual feasible. *)
let prop_simplex_strong_duality =
  QCheck.Test.make ~name:"simplex primal and dual optima agree" ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed + 23 |] in
      let n = 1 + Random.State.int rng 5 in
      let m = 1 + Random.State.int rng 5 in
      let binary = Random.State.bool rng in
      let coeff () =
        if Random.State.int rng 3 > 0 then 0.
        else if binary then 1.
        else Float.of_int (1 + Random.State.int rng 3)
      in
      let a =
        Array.append
          (Array.init m (fun _ -> Array.init n (fun _ -> coeff ())))
          [| Array.make n 1. |]
      in
      let b = Array.init (m + 1) (fun _ -> Float.of_int (Random.State.int rng 4)) in
      let c = Array.init n (fun _ -> Float.of_int (Random.State.int rng 4)) in
      let at = Array.init n (fun j -> Array.init (m + 1) (fun i -> -.a.(i).(j))) in
      let neg_c = Array.map (fun x -> -.x) c in
      match (Simplex.maximize ~c ~a ~b, Simplex.minimize ~c:b ~a:at ~b:neg_c) with
      | ( Simplex.Optimal { objective = primal; solution = x },
          Simplex.Optimal { objective = dual; solution = y } ) ->
          feasible_point ~a ~b x
          && feasible_point ~a:at ~b:neg_c y
          && Float.abs (primal -. dual) <= 1e-6
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* ILP *)

let knapsack ~values ~weights ~capacity =
  {
    Ilp.c = values;
    a = [| weights |];
    b = [| capacity |];
    upper = Array.map (fun _ -> 1.) values;
    integer = Array.map (fun _ -> true) values;
  }

let brute_knapsack ~values ~weights ~capacity =
  let n = Array.length values in
  let best = ref 0. in
  for mask = 0 to (1 lsl n) - 1 do
    let v = ref 0. and w = ref 0. in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        v := !v +. values.(i);
        w := !w +. weights.(i)
      end
    done;
    if !w <= capacity && !v > !best then best := !v
  done;
  !best

let test_ilp_knapsack () =
  let values = [| 10.; 13.; 7.; 8. |] and weights = [| 5.; 6.; 3.; 4. |] in
  match Ilp.solve (knapsack ~values ~weights ~capacity:10.) with
  | None -> Alcotest.fail "feasible"
  | Some { Ilp.objective; solution } ->
      check_float "knapsack opt" (brute_knapsack ~values ~weights ~capacity:10.) objective;
      Alcotest.(check bool) "solution integral" true
        (Array.for_all (fun x -> Float.abs (x -. Float.round x) < 1e-6) solution)

let test_ilp_fractional_vars () =
  (* One continuous variable alongside a binary one:
     max x + y, x binary, x + y <= 1.5, y <= 1 -> x=1, y=0.5. *)
  let p =
    {
      Ilp.c = [| 1.; 1. |];
      a = [| [| 1.; 1. |] |];
      b = [| 1.5 |];
      upper = [| 1.; 1. |];
      integer = [| true; false |];
    }
  in
  match Ilp.solve p with
  | None -> Alcotest.fail "feasible"
  | Some { Ilp.objective; solution } ->
      check_float "mixed objective" 1.5 objective;
      check_float "binary part" 1. solution.(0)

let test_ilp_infeasible () =
  let p =
    {
      Ilp.c = [| 1. |];
      a = [| [| -1. |] |];
      b = [| -2. |];
      upper = [| 1. |];
      integer = [| true |];
    }
  in
  Alcotest.(check bool) "infeasible" true (Ilp.solve p = None)

let test_ilp_is_feasible () =
  let p = knapsack ~values:[| 1.; 1. |] ~weights:[| 1.; 1. |] ~capacity:1. in
  Alcotest.(check bool) "ok point" true (Ilp.is_feasible p [| 1.; 0. |]);
  Alcotest.(check bool) "over capacity" false (Ilp.is_feasible p [| 1.; 1. |]);
  Alcotest.(check bool) "fractional" false (Ilp.is_feasible p [| 0.5; 0. |])

let prop_ilp_matches_brute_knapsack =
  QCheck.Test.make ~name:"branch-and-bound matches brute knapsack" ~count:80
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed + 31 |] in
      let n = 3 + Random.State.int rng 5 in
      let values = Array.init n (fun _ -> 1. +. Float.of_int (Random.State.int rng 15)) in
      let weights = Array.init n (fun _ -> 1. +. Float.of_int (Random.State.int rng 9)) in
      let capacity = 4. +. Float.of_int (Random.State.int rng 20) in
      match Ilp.solve (knapsack ~values ~weights ~capacity) with
      | None -> false
      | Some { Ilp.objective; solution } ->
          Ilp.is_feasible (knapsack ~values ~weights ~capacity) solution
          && Float.abs (objective -. brute_knapsack ~values ~weights ~capacity) < 1e-6)

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "two variables" `Quick test_simplex_2var;
          Alcotest.test_case "phase one" `Quick test_simplex_phase1;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "minimize" `Quick test_simplex_minimize;
          Alcotest.test_case "degenerate" `Quick test_simplex_degenerate;
          QCheck_alcotest.to_alcotest prop_simplex_sound;
          QCheck_alcotest.to_alcotest prop_simplex_strong_duality;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "knapsack" `Quick test_ilp_knapsack;
          Alcotest.test_case "mixed integer" `Quick test_ilp_fractional_vars;
          Alcotest.test_case "infeasible" `Quick test_ilp_infeasible;
          Alcotest.test_case "is_feasible" `Quick test_ilp_is_feasible;
          QCheck_alcotest.to_alcotest prop_ilp_matches_brute_knapsack;
        ] );
    ]
