(** Dense two-phase simplex for linear programs in the form

    {v maximize c.x  subject to  A x <= b,  x >= 0 v}

    [b] entries may be negative (phase I handles them with artificial
    variables). Bland's rule is used throughout, so the method cannot
    cycle. The LPs in this code base run from a handful of rows (ILP
    node relaxations) to thousands of columns (the directed candidate
    LP after a degraded link has one column per MWU tree, 2,305 on an
    8-GPU DGX-1V), so the dense tableau's hot loops run in C.

    {b Kernels.} Each pivot divides the pivot row, recording its nonzero
    columns, then eliminates the pivot column from every other row:
    over every column when at least a quarter of the pivot row is
    nonzero, over the recorded columns otherwise. Each iteration prices
    columns in index order, a block at a time, and the first column
    whose reduced cost exceeds [1e-9] enters; every reduced cost sums
    its terms over the costed rows in ascending order. Both kernels are
    C stubs compiled with [-ffp-contract=off]: every update is a
    separately rounded multiply and subtract, never a fused
    multiply-add, so the pivots, objectives and solutions are
    bit-identical to recomputing every reduced cost and updating every
    entry in OCaml, and callers that pin packings (TreeGen's ILP) see
    the same results.

    {b Sign of zero.} The dense elimination subtracts [f * 0] from
    entries the sparse one skips, which can turn a [-0.] entry into
    [+0.]. No step of the method can see the difference: zero entries
    are only compared (never pivoted on, never divided by), and a zero
    added to a nonzero value leaves it unchanged. Reported objectives and
    solution entries come from the right-hand side, which both paths
    update identically. *)

type status =
  | Optimal of {
      objective : float;
      solution : float array;
      duals : float array;  (** one per row of [a], read off the final basis *)
    }
  | Infeasible
  | Unbounded

val maximize : c:float array -> a:float array array -> b:float array -> status
(** [maximize ~c ~a ~b] solves the LP above. [a] has one row per
    constraint; every row must have the same length as [c]. Raises
    [Invalid_argument] on dimension mismatch.

    The [duals] [y] of an [Optimal] result solve the dual LP
    [minimize b.y subject to A^T y >= c, y >= 0]: they are feasible and
    [b.y = objective], both within the method's tolerance ([1e-9] per
    reduced cost). Computing them costs one pass over the costed basis
    rows; no pivot depends on them. *)

val minimize : c:float array -> a:float array array -> b:float array -> status
(** Same constraints, minimizing; the reported objective is the minimum
    and the [duals] are those of the minimization: [y <= 0],
    [A^T y <= c], [b.y = objective]. *)

type stats = { solves : int; pivots : int }

val stats : unit -> stats
(** LPs solved ({!maximize} and {!minimize} calls) and pivots taken
    since the program started, over all domains. *)

val eliminate :
  float array array ->
  float array ->
  scratch:int array ->
  row:int ->
  col:int ->
  int
(** [eliminate a b ~scratch ~row ~col] runs the pivot kernel once on the
    tableau [a] with right-hand side [b]: divides row [row] by
    [a.(row).(col)] and eliminates column [col] from every other row.
    [scratch] needs one slot per column. Returns the number of
    row-element updates made. Exposed for the kernel microbenchmark;
    raises [Invalid_argument] on a ragged tableau or a pivot out of
    range. *)
