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
      | Simplex.Optimal { objective; solution; _ } ->
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
      | ( Simplex.Optimal { objective = primal; solution = x; _ },
          Simplex.Optimal { objective = dual; solution = y; _ } ) ->
          feasible_point ~a ~b x
          && feasible_point ~a:at ~b:neg_c y
          && Float.abs (primal -. dual) <= 1e-6
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Differential reference: the OCaml tableau the C kernels replaced,
   verbatim but for the shared status type. Same pivots, same bits. *)

module Reference = struct
  let eps = 1e-9

  type tableau = {
    m : int;
    total : int;
    a : float array array;  (* m rows, total cols *)
    b : float array;  (* length m, kept >= -eps *)
    basis : int array;  (* length m *)
    cols : int array;  (* scratch, length total: the pivot row's nonzeros *)
    rows : int array;  (* scratch, length m: rows with a costed basic var *)
    costs : float array;  (* scratch, length m: the cost of each such row *)
  }

  let pivot t ~row ~col =
    let prow = t.a.(row) in
    let pval = prow.(col) in
    let cols = t.cols in
    let n_cols = ref 0 in
    for j = 0 to t.total - 1 do
      let v = prow.(j) in
      if v <> 0. then begin
        let v = v /. pval in
        prow.(j) <- v;
        if v <> 0. then begin
          cols.(!n_cols) <- j;
          incr n_cols
        end
      end
    done;
    let n_cols = !n_cols in
    t.b.(row) <- t.b.(row) /. pval;
    let brow = t.b.(row) in
    for i = 0 to t.m - 1 do
      if i <> row then begin
        let irow = t.a.(i) in
        let factor = irow.(col) in
        if Float.abs factor > 0. then begin
          (* [cols] holds [n_cols] indices, each below [total], the length
             of every tableau row. *)
          for k = 0 to n_cols - 1 do
            let j = Array.unsafe_get cols k in
            Array.unsafe_set irow j
              (Array.unsafe_get irow j -. (factor *. Array.unsafe_get prow j))
          done;
          t.b.(i) <- t.b.(i) -. (factor *. brow)
        end
      end
    done;
    t.basis.(row) <- col

  let objective_value t obj =
    let acc = ref 0. in
    for i = 0 to t.m - 1 do
      acc := !acc +. (obj.(t.basis.(i)) *. t.b.(i))
    done;
    !acc

  (* The first column in index order that [allowed] admits and whose
     reduced cost obj_j - sum_i obj_{basis i} * a_{i j} (maximization)
     exceeds [eps], or -1 when there is none. The sum runs over the rows
     with a nonzero basic cost, in ascending row order. *)
  let entering_column t obj allowed =
    let rows = t.rows and costs = t.costs in
    let n_rows = ref 0 in
    for i = 0 to t.m - 1 do
      let cb = obj.(t.basis.(i)) in
      if cb <> 0. then begin
        rows.(!n_rows) <- i;
        costs.(!n_rows) <- cb;
        incr n_rows
      end
    done;
    let n_rows = !n_rows in
    let a = t.a in
    let entering = ref (-1) and j = ref 0 in
    while !entering < 0 && !j < t.total do
      let col = !j in
      if allowed col then begin
        let acc = ref obj.(col) in
        (* [rows] and [costs] hold [n_rows] entries; each row index is
           below [m] and [col] below [total], the tableau's dimensions. *)
        for k = 0 to n_rows - 1 do
          let arow = Array.unsafe_get a (Array.unsafe_get rows k) in
          acc :=
            !acc -. (Array.unsafe_get costs k *. Array.unsafe_get arow col)
        done;
        if !acc > eps then entering := col
      end;
      incr j
    done;
    !entering

  (* Optimize [obj] (maximize) over the current tableau. [allowed] masks the
     columns the entering variable may come from. Returns [false] when
     unbounded. Bland's rule: smallest eligible entering column, smallest
     basis variable on ratio ties. *)
  let optimize t obj allowed =
    let rec loop () =
      let col = entering_column t obj allowed in
      if col < 0 then true
      else begin
        let row = ref (-1) in
        let best = ref infinity in
        for i = 0 to t.m - 1 do
          if t.a.(i).(col) > eps then begin
            let ratio = t.b.(i) /. t.a.(i).(col) in
            if
              ratio < !best -. eps
              || (ratio < !best +. eps
                 && (!row < 0 || t.basis.(i) < t.basis.(!row)))
            then begin
              best := ratio;
              row := i
            end
          end
        done;
        if !row < 0 then false
        else begin
          pivot t ~row:!row ~col;
          loop ()
        end
      end
    in
    loop ()

  let solve_max ~c ~a ~b =
    let m = Array.length a in
    let n = Array.length c in
    Array.iter
      (fun row ->
        if Array.length row <> n then
          invalid_arg "Simplex: constraint row length mismatch")
      a;
    if Array.length b <> m then invalid_arg "Simplex: rhs length mismatch";
    (* Rows with negative rhs are negated (the slack then has coefficient -1)
       and receive an artificial variable for phase I. *)
    let needs_artificial = Array.map (fun bi -> bi < 0.) b in
    let n_art =
      Array.fold_left (fun k need -> if need then k + 1 else k) 0 needs_artificial
    in
    let total = n + m + n_art in
    let t =
      {
        m;
        total;
        a = Array.make_matrix m total 0.;
        b = Array.make m 0.;
        basis = Array.make m 0;
        cols = Array.make total 0;
        rows = Array.make m 0;
        costs = Array.make m 0.;
      }
    in
    let art_col = ref (n + m) in
    for i = 0 to m - 1 do
      let sign = if needs_artificial.(i) then -1. else 1. in
      for j = 0 to n - 1 do
        t.a.(i).(j) <- sign *. a.(i).(j)
      done;
      t.a.(i).(n + i) <- sign;
      t.b.(i) <- sign *. b.(i);
      if needs_artificial.(i) then begin
        t.a.(i).(!art_col) <- 1.;
        t.basis.(i) <- !art_col;
        incr art_col
      end
      else t.basis.(i) <- n + i
    done;
    let feasible =
      if n_art = 0 then true
      else begin
        (* Phase I: maximize -(sum of artificials). *)
        let phase1 = Array.make total 0. in
        for j = n + m to total - 1 do
          phase1.(j) <- -1.
        done;
        let bounded = optimize t phase1 (fun _ -> true) in
        assert bounded;
        let infeasibility = -.objective_value t phase1 in
        if infeasibility > 1e-6 then false
        else begin
          (* Drive any remaining (zero-valued) artificials out of the basis. *)
          for i = 0 to m - 1 do
            if t.basis.(i) >= n + m then begin
              let j = ref 0 in
              let found = ref false in
              while (not !found) && !j < n + m do
                if Float.abs t.a.(i).(!j) > eps then begin
                  pivot t ~row:i ~col:!j;
                  found := true
                end;
                incr j
              done
              (* A row with no eligible pivot is redundant; the artificial
                 stays basic at value 0, harmless for phase II since its
                 column is excluded below. *)
            end
          done;
          true
        end
      end
    in
    if not feasible then Simplex.Infeasible
    else begin
      let phase2 = Array.make total 0. in
      Array.blit c 0 phase2 0 n;
      if not (optimize t phase2 (fun j -> j < n + m)) then Simplex.Unbounded
      else begin
        let solution = Array.make n 0. in
        for i = 0 to m - 1 do
          if t.basis.(i) < n then solution.(t.basis.(i)) <- t.b.(i)
        done;
        (* The reference does not price rows: [same_status] compares
           objectives and solutions only. *)
        Simplex.Optimal
          { objective = objective_value t phase2; solution; duals = [||] }
      end
    end
end

(* ±0 compare equal: the dense elimination may flip the sign of a zero
   (see simplex.mli); every other value must match bit for bit. *)
let same_bits x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  || (x = 0. && y = 0.)

let same_status s r =
  match (s, r) with
  | Simplex.Optimal s, Simplex.Optimal r ->
      same_bits s.objective r.objective
      && Array.length s.solution = Array.length r.solution
      && Array.for_all2 same_bits s.solution r.solution
  | Simplex.Infeasible, Simplex.Infeasible | Simplex.Unbounded, Simplex.Unbounded
    ->
      true
  | _ -> false

(* Random LPs of 1-60 rows and 1-400 columns: 0/1 or real coefficients at
   densities on both sides of the pivot kernel's dense/sparse switch (a
   quarter of the pivot row), a share of negative right-hand sides to
   force phase I, and duplicated columns (same coefficients, same cost)
   to force ties in pricing and in the ratio test. *)
let random_lp rng =
  let m = 1 + Random.State.int rng 60 in
  let n = 1 + Random.State.int rng 400 in
  let density = [| 0.03; 0.15; 0.4; 1. |].(Random.State.int rng 4) in
  let binary = Random.State.bool rng in
  let coeff () =
    if Random.State.float rng 1. >= density then 0.
    else if binary then 1.
    else if Random.State.int rng 8 = 0 then -.Random.State.float rng 1.
    else 0.05 +. Random.State.float rng 3.
  in
  let cost () =
    if binary then Float.of_int (Random.State.int rng 2)
    else Random.State.float rng 2. -. 0.2
  in
  let cols = Array.init n (fun _ -> (Array.init m (fun _ -> coeff ()), cost ())) in
  for j = 0 to n - 1 do
    if j > 0 && Random.State.int rng 5 = 0 then
      cols.(j) <- cols.(Random.State.int rng j)
  done;
  let a = Array.init m (fun i -> Array.init n (fun j -> (fst cols.(j)).(i))) in
  let c = Array.map snd cols in
  let negative = Random.State.int rng 4 = 0 in
  let b =
    Array.init m (fun _ ->
        if negative && Random.State.int rng 4 = 0 then
          -.Random.State.float rng 2.
        else if binary then Float.of_int (Random.State.int rng 4)
        else Random.State.float rng 10.)
  in
  (* An all-ones cap keeps most draws bounded. *)
  let a = if Random.State.int rng 4 = 0 then a else Array.append a [| Array.make n 1. |] in
  let b = if Array.length b = Array.length a then b else Array.append b [| 50. |] in
  (c, a, b)

let prop_simplex_matches_reference =
  QCheck.Test.make ~name:"C kernels match the OCaml tableau bit for bit"
    ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed + 41 |] in
      let c, a, b = random_lp rng in
      same_status (Simplex.maximize ~c ~a ~b) (Reference.solve_max ~c ~a ~b))

(* The reported duals solve the dual LP: y >= 0, A^T y >= c and
   b.y = objective, within a tolerance scaled to the draw's magnitudes. *)
let prop_simplex_duals =
  QCheck.Test.make ~name:"simplex duals feasible and tight" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed + 41 |] in
      let c, a, b = random_lp rng in
      match Simplex.maximize ~c ~a ~b with
      | Simplex.Optimal { objective; duals = y; _ } ->
          let tol = 1e-6 *. (1. +. Float.abs objective) in
          let by = ref 0. in
          Array.iteri (fun i yi -> by := !by +. (b.(i) *. yi)) y;
          Array.length y = Array.length a
          && Array.for_all (fun yi -> yi >= -.tol) y
          && Float.abs (!by -. objective) <= tol
          && Array.for_all Fun.id
               (Array.mapi
                  (fun j cj ->
                    let aty = ref 0. in
                    Array.iteri
                      (fun i row -> aty := !aty +. (row.(j) *. y.(i)))
                      a;
                    !aty >= cj -. tol)
                  c)
      | Simplex.Infeasible | Simplex.Unbounded -> true)

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

(* The node-limit report: called once when the limit cut the search
   short, never when branch-and-bound finished, and the solve itself does
   not depend on whether anyone listens. *)
let test_ilp_node_limit_reported () =
  let values = [| 10.; 13.; 7.; 8. |] and weights = [| 5.; 6.; 3.; 4. |] in
  let p = knapsack ~values ~weights ~capacity:10. in
  let hits = ref 0 in
  let on_node_limit () = incr hits in
  let full = Ilp.solve ~on_node_limit p in
  Alcotest.(check int) "finished: no report" 0 !hits;
  Alcotest.(check bool) "listening changes nothing" true (full = Ilp.solve p);
  let cut = Ilp.solve ~max_nodes:1 ~on_node_limit p in
  Alcotest.(check int) "cut short: one report" 1 !hits;
  Alcotest.(check bool) "cut result unchanged by the listener" true
    (cut = Ilp.solve ~max_nodes:1 p)

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
          QCheck_alcotest.to_alcotest prop_simplex_matches_reference;
          QCheck_alcotest.to_alcotest prop_simplex_duals;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "knapsack" `Quick test_ilp_knapsack;
          Alcotest.test_case "mixed integer" `Quick test_ilp_fractional_vars;
          Alcotest.test_case "infeasible" `Quick test_ilp_infeasible;
          Alcotest.test_case "is_feasible" `Quick test_ilp_is_feasible;
          Alcotest.test_case "node limit reported" `Quick
            test_ilp_node_limit_reported;
          QCheck_alcotest.to_alcotest prop_ilp_matches_brute_knapsack;
        ] );
    ]
