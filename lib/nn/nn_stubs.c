/* The Q-network's two hot loops (DESIGN.md §12): the dense forward
   kernel and the fused backward + AdaDelta training step, one whole
   layer per call.

   Both are bit-for-bit the scalar OCaml loops they replaced (test_nn
   pins them against a four-pass reference): every value comes from the
   same IEEE operations in the same order, and vectorizing only runs
   independent elements side by side, with [sqrtpd]/[divpd] correctly
   rounded like their scalar forms.  That holds under the flags in dune
   and no others: -ffp-contract=off (no FMA, which rounds once where
   the reference rounds twice), -fno-math-errno ([sqrt] as the
   instruction, not a libm call kept for errno), nothing host-specific.

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

/* One output row of a dense layer's training step: [n] weights and the
   bias at [w], their state at [g2]/[d2], the row's output gradient [d]
   over the input [xs].  [dn[i]] accumulates [w_i * d] with the
   pre-update weight; each weight's gradient is [0. + d * xs[i]] (the
   bias's [0. + d]), the value accumulating into a zeroed buffer gives.
   Returns whether the row's state is finite afterwards. */
static inline __attribute__((always_inline)) int
row(double *restrict w, double *restrict g2, double *restrict d2, intnat n,
    double rho, double eps, double d, const double *xs, double *dn)
{
  double omr = 1. - rho;
  uint64_t bad = 0;
  for (intnat i = 0; i < n; i++) dn[i] = dn[i] + w[i] * d;
  for (intnat i = 0; i < n; i++) bad |= step(w, g2, d2, i, 0. + d * xs[i], rho, omr, eps);
  bad |= step(w, g2, d2, n, 0. + d, rho, omr, eps);
  return (bad >> 63) == 0;
}

/* A whole layer's training step: [n_out] rows of [n] weights and a
   bias, row [o]'s gradient [dout[o]] behind the ReLU gate (none on the
   [last] layer).

   A row with d = +-0 and a finite pre-activation has only finite
   weights and inputs, so every gradient is +0 and every [w * d] is
   +-0, which cannot change [dn] (a round-to-nearest sum from +0 is -0
   only when both terms are).  For g = +0 and finite state the formula
   is a decay: (1-rho)*g*g = +0; the step -r*g is -0 (r is finite and
   >= 0 since eps > 0 and g2, d2 >= 0), so d2 gains (1-rho)*s*s = +0;
   and w + -0 = w.  Such a row only decays its state.

   [debt[o]] is -1 while row [o]'s state is not finite, and otherwise
   the number of decays the row owes.  A row that would only decay
   finite state adds one to its debt and touches nothing.  Any other
   row first pays its debt, then runs [row], which reports whether the
   state is still finite.  Decaying finite, non-negative state keeps it
   finite, so each deferred step would have been exactly a decay, and
   the replay runs the same operations in the same order: the state a
   row reads is bit-for-bit the eager one, and a debt never paid is
   never read.  Non-finite state stays non-finite, so a row at -1 runs
   the full formula on every step. */
value ft_nn_update_layer(value params, value g2v, value d2v, value debt, intnat n,
                         intnat n_out, value last, double rho, double eps,
                         value dout, value pre, value x, value din)
{
  double *w = (double *) Caml_ba_data_val(params);
  double *g2 = (double *) Caml_ba_data_val(g2v);
  double *d2 = (double *) Caml_ba_data_val(d2v);
  const double *dv = (const double *) dout, *pv = (const double *) pre;
  for (intnat o = 0, off = 0; o < n_out; o++, off += n + 1) {
    intnat owed = Long_val(Field(debt, o));
    double p = pv[o], d = Bool_val(last) || p > 0. ? dv[o] : 0.;
    if (owed >= 0 && d == 0. && p - p == 0.) {
      Field(debt, o) = Val_long(owed + 1);
      continue;
    }
    if (owed > 0) decay(g2 + off, d2 + off, n + 1, owed, rho);
    int finite = row(w + off, g2 + off, d2 + off, n, rho, eps, d,
                     (const double *) x, (double *) din);
    Field(debt, o) = Val_long(finite ? 0 : -1);
  }
  return Val_unit;
}

value ft_nn_update_layer_byte(value *argv, int argn)
{
  (void) argn;
  return ft_nn_update_layer(argv[0], argv[1], argv[2], argv[3], Long_val(argv[4]),
                            Long_val(argv[5]), argv[6], Double_val(argv[7]),
                            Double_val(argv[8]), argv[9], argv[10], argv[11],
                            argv[12]);
}
