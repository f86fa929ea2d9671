(* Two-phase dense tableau simplex with Bland's rule.

   Layout: columns [0 .. n-1] are the structural variables, [n .. n+m-1] the
   slacks, and during phase I columns [n+m ..] are artificials. The tableau
   keeps A (m x total), the rhs b (>= 0 after row normalization), and the
   basis (one column index per row). There is no objective row: Bland's
   rule only needs the first column with a positive reduced cost, so
   [optimize] prices columns in index order, over the rows whose basic
   variable has a nonzero cost, and stops at the first eligible one.

   The two hot loops, the pivot and the pricing scan, are C kernels
   (simplex_stubs.c). The pivot updates every column when the pivot row
   is dense and only its nonzero columns otherwise; the pricing scan
   prices a block of columns at a time.

   Bit-identity contract: every reduced cost sums the same terms in the
   same order as a full objective-row recomputation would, every entry
   update is the same a - f * b (no fused multiply-add), and the sparse
   pivot skips only the pivot row's zero entries, whose updates would
   subtract a zero, so the method takes exactly the pivots of the plain
   dense tableau and returns the same bits. The one possible difference
   is the sign of a zero tableau entry, which no comparison below can
   see. An incrementally updated objective row would
   round differently and could change which column enters. *)

type status =
  | Optimal of {
      objective : float;
      solution : float array;
      duals : float array;
    }
  | Infeasible
  | Unbounded

let eps = 1e-9

(* Process-wide totals, for reports: atomic because planning runs on
   several domains at once. *)
let solves = Atomic.make 0
let pivots = Atomic.make 0

type stats = { solves : int; pivots : int }

let stats () = { solves = Atomic.get solves; pivots = Atomic.get pivots }

type tableau = {
  m : int;
  total : int;
  a : float array array;  (* m rows, total cols *)
  b : float array;  (* length m, kept >= -eps *)
  basis : int array;  (* length m *)
  cols : int array;  (* scratch, length total: the pivot row's nonzeros *)
  rows : int array;  (* scratch, length m: rows with a costed basic var *)
  costs : float array;  (* scratch, length m: the cost of each such row *)
  reduced : float array;  (* scratch, length total: priced columns *)
}

external pivot_kernel :
  float array array -> float array -> int array -> int -> int -> int
  = "blink_lp_pivot"
[@@noalloc]

external entering_kernel :
  float array array ->
  float array ->
  int array ->
  float array ->
  int ->
  int ->
  float ->
  float array ->
  int = "blink_lp_entering_byte" "blink_lp_entering_nat"
[@@noalloc]

let eliminate a b ~scratch ~row ~col =
  let m = Array.length a in
  if row < 0 || row >= m || col < 0 || col >= Array.length a.(row) then
    invalid_arg "Simplex.eliminate: pivot out of range";
  let total = Array.length a.(row) in
  if Array.length b <> m || Array.length scratch < total then
    invalid_arg "Simplex.eliminate: dimension mismatch";
  Array.iter
    (fun r ->
      if Array.length r <> total then
        invalid_arg "Simplex.eliminate: ragged tableau")
    a;
  pivot_kernel a b scratch row col

let pivot t ~row ~col =
  Atomic.incr pivots;
  ignore (pivot_kernel t.a t.b t.cols row col : int);
  t.basis.(row) <- col

let objective_value t obj =
  let acc = ref 0. in
  for i = 0 to t.m - 1 do
    acc := !acc +. (obj.(t.basis.(i)) *. t.b.(i))
  done;
  !acc

(* The optimal duals of the [m] original rows. The tableau's slack
   column [n + i] is [B^-1 (sign_i e_i)], so [c_B] times it is the dual
   of row [i] in the caller's sign convention, negated rows included.
   Summed row by row so the scan stays contiguous. *)
let duals t obj ~n =
  let y = Array.make t.m 0. in
  for k = 0 to t.m - 1 do
    let cb = obj.(t.basis.(k)) in
    if cb <> 0. then begin
      let row = t.a.(k) in
      for i = 0 to t.m - 1 do
        y.(i) <- y.(i) +. (cb *. row.(n + i))
      done
    end
  done;
  y

(* The first column below [limit] whose reduced cost
   obj_j - sum_i obj_{basis i} * a_{i j} (maximization) exceeds [eps],
   or -1 when there is none. The sum runs over the rows with a nonzero
   basic cost, in ascending row order. *)
let entering_column t obj ~limit =
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
  entering_kernel t.a obj rows costs !n_rows limit eps t.reduced

(* Optimize [obj] (maximize) over the current tableau. The entering
   variable comes from the columns below [limit]. Returns [false] when
   unbounded. Bland's rule: smallest eligible entering column, smallest
   basis variable on ratio ties. *)
let optimize t obj ~limit =
  let rec loop () =
    let col = entering_column t obj ~limit in
    if col < 0 then true
    else begin
      let row = ref (-1) in
      let best = ref infinity in
      for i = 0 to t.m - 1 do
        let aic = t.a.(i).(col) in
        if aic > eps then begin
          let ratio = t.b.(i) /. aic in
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
  Atomic.incr solves;
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
      reduced = Array.make total 0.;
    }
  in
  let art_col = ref (n + m) in
  for i = 0 to m - 1 do
    let sign = if needs_artificial.(i) then -1. else 1. in
    (* [1. *. x] is [x] bit for bit, so positive rows are copied. *)
    if needs_artificial.(i) then
      for j = 0 to n - 1 do
        t.a.(i).(j) <- sign *. a.(i).(j)
      done
    else Array.blit a.(i) 0 t.a.(i) 0 n;
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
      let bounded = optimize t phase1 ~limit:total in
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
  if not feasible then Infeasible
  else begin
    let phase2 = Array.make total 0. in
    Array.blit c 0 phase2 0 n;
    if not (optimize t phase2 ~limit:(n + m)) then Unbounded
    else begin
      let solution = Array.make n 0. in
      for i = 0 to m - 1 do
        if t.basis.(i) < n then solution.(t.basis.(i)) <- t.b.(i)
      done;
      let duals = duals t phase2 ~n in
      Optimal { objective = objective_value t phase2; solution; duals }
    end
  end

let maximize ~c ~a ~b = solve_max ~c ~a ~b

let minimize ~c ~a ~b =
  match solve_max ~c:(Array.map (fun x -> -.x) c) ~a ~b with
  | Optimal { objective; solution; duals } ->
      let duals = Array.map (fun y -> -.y) duals in
      Optimal { objective = -.objective; solution; duals }
  | (Infeasible | Unbounded) as other -> other
