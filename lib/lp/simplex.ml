(* Two-phase dense tableau simplex with Bland's rule.

   Layout: columns [0 .. n-1] are the structural variables, [n .. n+m-1] the
   slacks, and during phase I columns [n+m ..] are artificials. The tableau
   keeps A (m x total), the rhs b (>= 0 after row normalization), and the
   basis (one column index per row). There is no objective row: Bland's
   rule only needs the first column with a positive reduced cost, so
   [optimize] prices columns in index order, over the rows whose basic
   variable has a nonzero cost, and stops at the first eligible one.
   [pivot] touches only the pivot row's nonzero columns, which keeps it
   cheap on the sparse 0/1 packing LPs.

   Bit-identity contract: every reduced cost sums the same terms in the
   same order as a full objective-row recomputation would, and the pivot
   skips only the pivot row's zero entries, whose updates would add or
   divide a zero, so the method takes exactly the pivots of the plain
   dense tableau and returns the same bits. The one possible difference
   is the sign of a zero tableau entry, which no comparison below can
   see. An incrementally updated objective row would
   round differently and could change which column enters. *)

type status =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

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
  if not feasible then Infeasible
  else begin
    let phase2 = Array.make total 0. in
    Array.blit c 0 phase2 0 n;
    if not (optimize t phase2 (fun j -> j < n + m)) then Unbounded
    else begin
      let solution = Array.make n 0. in
      for i = 0 to m - 1 do
        if t.basis.(i) < n then solution.(t.basis.(i)) <- t.b.(i)
      done;
      Optimal { objective = objective_value t phase2; solution }
    end
  end

let maximize ~c ~a ~b = solve_max ~c ~a ~b

let minimize ~c ~a ~b =
  match solve_max ~c:(Array.map (fun x -> -.x) c) ~a ~b with
  | Optimal { objective; solution } ->
      Optimal { objective = -.objective; solution }
  | (Infeasible | Unbounded) as other -> other
