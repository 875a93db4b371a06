/* The Q-network's hot loops (DESIGN.md §12), one whole layer per
   call: the dense forward kernel, one sample's backward pass into the
   round's gradient sums, and the round's AdaDelta step.

   All are bit-for-bit the scalar OCaml loops of test_nn's reference
   (a forward, gradients summed into zeroed buffers in sample order,
   their mean, then AdaDelta over every parameter): every value comes
   from the same IEEE operations in the same order, and vectorizing
   only runs independent elements side by side, with [sqrtpd]/[divpd]
   correctly rounded like their scalar forms.  That holds under the
   flags in dune and no others: -ffp-contract=off (no FMA, which rounds
   once where the reference rounds twice), -fno-math-errno ([sqrt] as
   the instruction, not a libm call kept for errno), nothing
   host-specific.

   The OCaml callers check every bound and width; nothing here checks,
   allocates or raises ([@@noalloc]). */

#define CAML_NAME_SPACE
#include <caml/bigarray.h>
#include <caml/mlvalues.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

/* A [float array] is read in place as a C array of doubles. */
#ifndef FLAT_FLOAT_ARRAY
#error "nn_stubs.c needs flat float arrays"
#endif

/* Outputs [out[0 .. w)] of [w] consecutive rows starting at [r], rows
   [stride] apart, each [n_in] weights then its bias.  [w] is a
   compile-time constant at every call, so the accumulators live in
   registers. */
static inline __attribute__((always_inline)) void
rows(const double *restrict r, intnat stride, intnat n_in, const double *x,
     double *out, int w)
{
  double a[8];
  for (int k = 0; k < w; k++) a[k] = r[k * stride + n_in];
  for (intnat i = 0; i < n_in; i++) {
    double xi = x[i];
    for (int k = 0; k < w; k++) a[k] += r[k * stride + i] * xi;
  }
  for (int k = 0; k < w; k++) out[k] = a[k];
}

/* pre[o] = bias_o + sum_i w_oi * x[i] over the layer's [n_out] flat
   rows, eight outputs per pass over [x]. */
value ft_nn_affine(value p, intnat n_in, intnat n_out, value x, value pre)
{
  const double *w = (const double *) Caml_ba_data_val(p);
  const double *xs = (const double *) x;
  double *out = (double *) pre;
  intnat stride = n_in + 1, o = 0;
  for (; o + 8 <= n_out; o += 8) rows(w + o * stride, stride, n_in, xs, out + o, 8);
  for (; o + 4 <= n_out; o += 4) rows(w + o * stride, stride, n_in, xs, out + o, 4);
  for (; o < n_out; o++) rows(w + o * stride, stride, n_in, xs, out + o, 1);
  return Val_unit;
}

value ft_nn_affine_byte(value p, value n_in, value n_out, value x, value pre)
{
  return ft_nn_affine(p, Long_val(n_in), Long_val(n_out), x, pre);
}

/* Non-zero in the sign bit exactly when [v] is inf or nan: the
   exponent field plus one carries into the sign bit exactly when it is
   all ones.  OR-ed over many values, a branch-free finiteness test. */
static inline __attribute__((always_inline)) uint64_t nonfinite(double v)
{
  uint64_t b;
  memcpy(&b, &v, sizeof b);
  return (b & (0x7ffULL << 52)) + (1ULL << 52);
}

/* AdaDelta (Zeiler 2012) on element [j] with gradient [g]: the one
   copy of the formula.  Returns [nonfinite] of the element's new
   state. */
static inline __attribute__((always_inline)) uint64_t
step(double *restrict w, double *restrict g2v, double *restrict d2v, intnat j,
     double g, double rho, double omr, double eps)
{
  double g2 = rho * g2v[j] + omr * g * g;
  double s = -(sqrt(d2v[j] + eps) / sqrt(g2 + eps)) * g;
  double d2 = rho * d2v[j] + omr * s * s;
  g2v[j] = g2;
  d2v[j] = d2;
  w[j] = w[j] + s;
  return nonfinite(g2) | nonfinite(d2);
}

/* [k] decay-only AdaDelta steps on [m] elements of state: the formula
   at g = +0 on finite state, in order, one pass per step. */
static void decay(double *restrict g2, double *restrict d2, intnat m, intnat k,
                  double rho)
{
  for (; k > 0; k--)
    for (intnat j = 0; j < m; j++) {
      g2[j] = rho * g2[j] + 0.;
      d2[j] = rho * d2[j] + 0.;
    }
}

/* One sample's backward pass through a dense layer of [n_out] rows of
   [n] weights and a bias, added into the round's summed gradient [gv]
   (the parameters' layout): row [o]'s gradient [d] is [dout[o]] behind
   the ReLU gate (none on the [last] layer); [dn[i]] accumulates
   [w_i * d], each weight's sum gains [d * xs[i]] and the bias's [d].
   The weights do not move until [ft_nn_step], so every sample of a
   round reads the same ones.

   A row with d = +-0 and a finite pre-activation is skipped: its
   weights and inputs are finite, so each [d * xs[i]] and [w * d] is
   +-0, and adding +-0 changes neither a sum that started at +0 nor
   [dn] (a round-to-nearest sum is -0 only when both terms are). */
value ft_nn_accumulate(value params, value gv, intnat n, intnat n_out, value last,
                       value dout, value pre, value x, value din)
{
  const double *w = (const double *) Caml_ba_data_val(params);
  double *g = (double *) Caml_ba_data_val(gv);
  const double *dv = (const double *) dout, *pv = (const double *) pre;
  const double *xs = (const double *) x;
  double *dn = (double *) din;
  for (intnat o = 0, off = 0; o < n_out; o++, off += n + 1) {
    double p = pv[o], d = Bool_val(last) || p > 0. ? dv[o] : 0.;
    if (d == 0. && p - p == 0.) continue;
    const double *wr = w + off;
    double *restrict gr = g + off;
    for (intnat i = 0; i < n; i++) dn[i] = dn[i] + wr[i] * d;
    for (intnat i = 0; i < n; i++) gr[i] = gr[i] + d * xs[i];
    gr[n] = gr[n] + d;
  }
  return Val_unit;
}

value ft_nn_accumulate_byte(value *argv, int argn)
{
  (void) argn;
  return ft_nn_accumulate(argv[0], argv[1], Long_val(argv[2]), Long_val(argv[3]), argv[4],
                          argv[5], argv[6], argv[7], argv[8]);
}

/* One AdaDelta step on [m] elements with gradient [g[j] / count],
   zeroing the sums for the next round.  Returns whether the state is
   finite afterwards. */
static inline __attribute__((always_inline)) int
row(double *restrict w, double *restrict g2, double *restrict d2, double *restrict g,
    intnat m, double count, double rho, double eps)
{
  double omr = 1. - rho;
  uint64_t bad = 0;
  for (intnat j = 0; j < m; j++) {
    bad |= step(w, g2, d2, j, g[j] / count, rho, omr, eps);
    g[j] = 0.;
  }
  return (bad >> 63) == 0;
}

/* A whole layer's AdaDelta step on the round's mean gradient: [n_out]
   rows of [n] weights and a bias, their sums in [gv].

   A row whose sums are all +-0 has gradient +-0 everywhere, and for
   g = +-0 and finite state the formula is a decay: (1-rho)*g*g = +0;
   the step -r*g is +-0 (r is finite and >= 0 since eps > 0 and g2,
   d2 >= 0), so d2 gains (1-rho)*s*s = +0; and w + +-0 = w.  Such a row
   only decays its state.

   [debt[o]] is -1 while row [o]'s state is not finite, and otherwise
   the number of decays the row owes.  A row that would only decay
   finite state adds one to its debt and touches nothing.  Any other
   row first pays its debt, then steps, and records whether the state
   is still finite.  Decaying finite, non-negative state keeps it
   finite, so each deferred step would have been exactly a decay, and
   the replay runs the same operations in the same order: the state a
   row reads is bit-for-bit the eager one, and a debt never paid is
   never read.  Non-finite state stays non-finite, so a row at -1 runs
   the full formula on every step. */
value ft_nn_step(value params, value g2v, value d2v, value gv, value debt, intnat n,
                 intnat n_out, double rho, double eps, double count)
{
  double *w = (double *) Caml_ba_data_val(params);
  double *g2 = (double *) Caml_ba_data_val(g2v);
  double *d2 = (double *) Caml_ba_data_val(d2v);
  double *g = (double *) Caml_ba_data_val(gv);
  for (intnat o = 0, off = 0; o < n_out; o++, off += n + 1) {
    intnat owed = Long_val(Field(debt, o));
    int zero = 1;
    for (intnat j = 0; j <= n; j++) zero &= g[off + j] == 0.;
    if (owed >= 0 && zero) {
      Field(debt, o) = Val_long(owed + 1);
      continue;
    }
    if (owed > 0) decay(g2 + off, d2 + off, n + 1, owed, rho);
    int finite = row(w + off, g2 + off, d2 + off, g + off, n + 1, count, rho, eps);
    Field(debt, o) = Val_long(finite ? 0 : -1);
  }
  return Val_unit;
}

value ft_nn_step_byte(value *argv, int argn)
{
  (void) argn;
  return ft_nn_step(argv[0], argv[1], argv[2], argv[3], argv[4], Long_val(argv[5]),
                    Long_val(argv[6]), Double_val(argv[7]), Double_val(argv[8]),
                    Double_val(argv[9]));
}
