type problem = {
  c : float array;
  a : float array array;
  b : float array;
  upper : float array;
  integer : bool array;
}

type result = { objective : float; solution : float array }

let tol = 1e-6

let validate p =
  let n = Array.length p.c in
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Ilp: row length mismatch")
    p.a;
  if Array.length p.b <> Array.length p.a then
    invalid_arg "Ilp: rhs length mismatch";
  if Array.length p.upper <> n then invalid_arg "Ilp: upper length mismatch";
  if Array.length p.integer <> n then invalid_arg "Ilp: integer mask mismatch"

let is_feasible p x =
  let n = Array.length p.c in
  Array.length x = n
  && (let ok = ref true in
      Array.iteri
        (fun j xj ->
          if xj < -.tol || xj > p.upper.(j) +. tol then ok := false;
          if p.integer.(j) && Float.abs (xj -. Float.round xj) > tol then
            ok := false)
        x;
      Array.iteri
        (fun i row ->
          let lhs = ref 0. in
          Array.iteri (fun j aij -> lhs := !lhs +. (aij *. x.(j))) row;
          if !lhs > p.b.(i) +. tol then ok := false)
        p.a;
      !ok)

(* LP relaxation under extra variable bounds [lo, hi]. Lower bounds are
   handled by the substitution x = y + lo (y >= 0); upper bounds become
   explicit rows. Returns the solution in original coordinates. *)
let relaxation p lo hi =
  let n = Array.length p.c in
  let m = Array.length p.a in
  (* Infeasible box. *)
  let box_ok = ref true in
  for j = 0 to n - 1 do
    if lo.(j) > hi.(j) +. tol then box_ok := false
  done;
  if not !box_ok then Simplex.Infeasible
  else begin
    let bound_rows = ref [] in
    for j = n - 1 downto 0 do
      if hi.(j) < infinity then begin
        let row = Array.make n 0. in
        row.(j) <- 1.;
        bound_rows := (row, hi.(j) -. lo.(j)) :: !bound_rows
      end
    done;
    let extra = List.length !bound_rows in
    let a = Array.make_matrix (m + extra) n 0. in
    let b = Array.make (m + extra) 0. in
    for i = 0 to m - 1 do
      Array.blit p.a.(i) 0 a.(i) 0 n;
      (* b_i' = b_i - A_i . lo *)
      let shift = ref 0. in
      for j = 0 to n - 1 do
        shift := !shift +. (p.a.(i).(j) *. lo.(j))
      done;
      b.(i) <- p.b.(i) -. !shift
    done;
    List.iteri
      (fun k (row, rhs) ->
        a.(m + k) <- row;
        b.(m + k) <- rhs)
      !bound_rows;
    match Simplex.maximize ~c:p.c ~a ~b with
    | Simplex.Optimal { objective; solution; duals } ->
        let shifted = Array.mapi (fun j y -> y +. lo.(j)) solution in
        let const = ref 0. in
        for j = 0 to n - 1 do
          const := !const +. (p.c.(j) *. lo.(j))
        done;
        Simplex.Optimal
          { objective = objective +. !const; solution = shifted; duals }
    | other -> other
  end

let solve ?(max_nodes = 200_000) ?warm_start ?on_node_limit p =
  validate p;
  let n = Array.length p.c in
  let incumbent = ref None in
  let incumbent_obj = ref neg_infinity in
  (match warm_start with
  | Some x when is_feasible p x ->
      let rounded =
        Array.mapi
          (fun j xj -> if p.integer.(j) then Float.round xj else xj)
          x
      in
      let objective = ref 0. in
      Array.iteri (fun j cj -> objective := !objective +. (cj *. rounded.(j))) p.c;
      incumbent_obj := !objective;
      incumbent := Some { objective = !objective; solution = rounded }
  | _ -> ());
  let nodes = ref 0 in
  let truncated = ref false in
  let rec branch lo hi =
    if !nodes >= max_nodes then truncated := true
    else begin
      incr nodes;
      match relaxation p lo hi with
      | Simplex.Infeasible -> ()
      | Simplex.Unbounded ->
          (* Bounded boxes for integer vars make this possible only through
             continuous vars; treat as a hopeless direction. *)
          ()
      | Simplex.Optimal { objective; solution; _ } ->
          if objective > !incumbent_obj +. tol then begin
            (* Most fractional integer-constrained variable. *)
            let frac_var = ref (-1) in
            let frac_dist = ref 0. in
            for j = 0 to n - 1 do
              if p.integer.(j) then begin
                let f = solution.(j) -. Float.round solution.(j) in
                let d = Float.abs f in
                if d > tol && d > !frac_dist then begin
                  frac_dist := d;
                  frac_var := j
                end
              end
            done;
            if !frac_var < 0 then begin
              (* Integral (and within bounds by construction): new incumbent. *)
              let rounded =
                Array.mapi
                  (fun j xj -> if p.integer.(j) then Float.round xj else xj)
                  solution
              in
              if objective > !incumbent_obj then begin
                incumbent_obj := objective;
                incumbent := Some { objective; solution = rounded }
              end
            end
            else begin
              let j = !frac_var in
              let xj = solution.(j) in
              let hi' = Array.copy hi in
              hi'.(j) <- Float.of_int (int_of_float (Float.floor (xj +. tol)));
              branch lo hi';
              let lo' = Array.copy lo in
              lo'.(j) <- Float.of_int (int_of_float (Float.ceil (xj -. tol)));
              branch lo' hi
            end
          end
    end
  in
  let lo = Array.make n 0. in
  let hi = Array.copy p.upper in
  branch lo hi;
  (match on_node_limit with Some f when !truncated -> f () | _ -> ());
  !incumbent
