/* Simplex tableau kernels: the pivot (divide the pivot row, eliminate
   the pivot column from every other row) and Bland pricing (the first
   column under a limit whose reduced cost exceeds eps).

   Every entry is computed with the same IEEE operations, in the same
   order, as the reference OCaml loops these replace, so the simplex
   takes the same pivots and returns the same bits. Two rules keep it
   that way:
   - the library is compiled with -ffp-contract=off: an a - f * b
     contracted into one fused multiply-add rounds once instead of
     twice and moves the bits;
   - every sum runs in the reference order. Vector code is allowed only
     where each lane is one independent entry (the dense elimination,
     the blocked pricing), never as a reassociated reduction.

   The tableau is a float array array (each row a flat double array);
   the rhs, costs and block scratch are float arrays; the index scratch
   arrays hold tagged OCaml ints. No stub allocates on the OCaml heap or
   raises, so all are [@@noalloc]. */

#include <math.h>
#include <caml/mlvalues.h>

#define Row(va, i) ((double *)Field((va), (i)))

/* irow -= factor * prow over every column. Exact per entry: where prow
   is zero the entry is unchanged but for the sign of a zero. */
static void eliminate_dense(double *restrict irow, const double *restrict prow,
                            double factor, long total)
{
  for (long j = 0; j < total; j++) irow[j] = irow[j] - factor * prow[j];
}

/* irow -= factor * prow over the pivot row's nonzero columns. */
static void eliminate_sparse(double *restrict irow,
                             const double *restrict prow, double factor,
                             value vcols, long n_cols)
{
  for (long k = 0; k < n_cols; k++) {
    long j = Long_val(Field(vcols, k));
    irow[j] = irow[j] - factor * prow[j];
  }
}

/* Pivot on (row, col). [vcols] (an int array of at least [total]
   entries) receives the pivot row's nonzero columns. Rows whose pivot
   column entry is nonzero are eliminated densely when at least a
   quarter of the pivot row is nonzero — one streaming vector pass beats
   the indexed gather there — and over the recorded columns otherwise.
   Returns the number of row-element updates. */
CAMLprim value blink_lp_pivot(value va, value vb, value vcols, value vrow,
                              value vcol)
{
  long row = Long_val(vrow), col = Long_val(vcol);
  long m = Wosize_val(va);
  double *b = (double *)vb;
  double *prow = Row(va, row);
  long total = Wosize_val((value)prow) / Double_wosize;
  double pval = prow[col];
  long n_cols = 0;
  for (long j = 0; j < total; j++) {
    double v = prow[j];
    if (v != 0.) {
      v = v / pval;
      prow[j] = v;
      if (v != 0.) {
        Field(vcols, n_cols) = Val_long(j);
        n_cols++;
      }
    }
  }
  b[row] = b[row] / pval;
  double brow = b[row];
  int dense = 4 * n_cols >= total;
  long width = dense ? total : n_cols;
  long updates = 0;
  for (long i = 0; i < m; i++) {
    if (i == row) continue;
    double *irow = Row(va, i);
    double factor = irow[col];
    if (fabs(factor) > 0.) {
      if (dense) eliminate_dense(irow, prow, factor, total);
      else eliminate_sparse(irow, prow, factor, vcols, n_cols);
      b[i] = b[i] - factor * brow;
      updates += width;
    }
  }
  return Val_long(updates);
}

/* Reduced costs are computed a block of columns at a time, row by row
   across the block, into [vred]. Each column still sums
   obj_j - c_0 a_0j - c_1 a_1j - ... in ascending row order, exactly as
   a column-at-a-time scan would; the block only trades the column
   scan's dependent chain for independent lanes. At most [BLOCK - 1]
   columns past the answer are priced and discarded. */
#define BLOCK 64

/* The first column j < limit with obj_j - sum_k costs_k * a_{rows_k, j}
   > eps, or -1. [vrows]/[vcosts] hold the [n_rows] rows whose basic
   variable has a nonzero cost (ascending) and those costs; [vred] is
   float scratch of at least [limit] entries. */
CAMLprim value blink_lp_entering_nat(value va, value vobj, value vrows,
                                     value vcosts, value vn_rows,
                                     value vlimit, value veps, value vred)
{
  const double *obj = (const double *)vobj;
  const double *costs = (const double *)vcosts;
  double *red = (double *)vred;
  long n_rows = Long_val(vn_rows), limit = Long_val(vlimit);
  double eps = Double_val(veps);
  for (long j0 = 0; j0 < limit; j0 += BLOCK) {
    long j1 = j0 + BLOCK < limit ? j0 + BLOCK : limit;
    for (long j = j0; j < j1; j++) red[j] = obj[j];
    for (long k = 0; k < n_rows; k++) {
      const double *arow = Row(va, Long_val(Field(vrows, k)));
      double c = costs[k];
      for (long j = j0; j < j1; j++) red[j] = red[j] - c * arow[j];
    }
    for (long j = j0; j < j1; j++)
      if (red[j] > eps) return Val_long(j);
  }
  return Val_long(-1);
}

CAMLprim value blink_lp_entering_byte(value *argv, int argn)
{
  (void)argn;
  return blink_lp_entering_nat(argv[0], argv[1], argv[2], argv[3], argv[4],
                               argv[5], argv[6], argv[7]);
}
