(** Dense two-phase simplex for linear programs in the form

    {v maximize c.x  subject to  A x <= b,  x >= 0 v}

    [b] entries may be negative (phase I handles them with artificial
    variables). Bland's rule is used throughout, so the method cannot
    cycle. Problem sizes in this code base are tiny (hundreds of rows),
    so the dense tableau is the right tool.

    Each iteration prices columns lazily (the first eligible column in
    index order ends the scan) and each pivot updates only the pivot
    row's nonzero columns. Both are exact: the pivots, objectives and
    solutions are bit-identical to recomputing every reduced cost and
    updating every entry, so callers that pin packings (TreeGen's ILP)
    see the same results. *)

type status =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

val maximize : c:float array -> a:float array array -> b:float array -> status
(** [maximize ~c ~a ~b] solves the LP above. [a] has one row per
    constraint; every row must have the same length as [c]. Raises
    [Invalid_argument] on dimension mismatch. *)

val minimize : c:float array -> a:float array array -> b:float array -> status
(** Same constraints, minimizing; the reported objective is the minimum. *)
