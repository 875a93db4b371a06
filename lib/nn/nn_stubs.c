/* The Q-network's two hot loops (DESIGN.md §12): the dense forward
   kernel and one row of the fused backward + AdaDelta training step.

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

/* AdaDelta (Zeiler 2012) on element [j] with gradient [g]: the one
   copy of the formula. */
static inline __attribute__((always_inline)) void
step(double *restrict w, double *restrict g2v, double *restrict d2v, intnat j,
     double g, double rho, double omr, double eps)
{
  double g2 = rho * g2v[j] + omr * g * g;
  double s = -(sqrt(d2v[j] + eps) / sqrt(g2 + eps)) * g;
  g2v[j] = g2;
  d2v[j] = rho * d2v[j] + omr * s * s;
  w[j] = w[j] + s;
}

/* Whether [v[0 .. n)] are all finite, as one branch-free reduction:
   the exponent field plus one carries into the sign bit exactly when
   it is all ones (inf or nan). */
static int all_finite(const double *v, intnat n)
{
  const uint64_t exp = 0x7ffULL << 52, one = 1ULL << 52;
  uint64_t bad = 0;
  for (intnat j = 0; j < n; j++) {
    uint64_t b;
    memcpy(&b, v + j, sizeof b);
    bad |= (b & exp) + one;
  }
  return (bad >> 63) == 0;
}

/* One output row of a dense layer's training step: [n] weights and the
   bias at [params + off], the row's output gradient [d], its
   pre-activation [pre] over the input [x].  din[i] accumulates
   [w_i * d] with the pre-update weight; each weight's gradient is
   [0. + d * x[i]] (the bias's [0. + d]), the value accumulating into a
   zeroed buffer gives.

   A row with d = +-0 and a finite [pre] has only finite weights and
   inputs, so every gradient is +0 and every [w * d] is +-0, which
   cannot change [din] (a round-to-nearest sum from +0 is -0 only when
   both terms are).  For g = +0 and finite state the formula is a
   decay: (1-rho)*g*g = +0; the step -r*g is -0 (r is finite and >= 0
   since eps > 0 and g2, d2 >= 0), so d2 gains (1-rho)*s*s = +0; and
   w + -0 = w.  Such a row therefore only decays its state, unless some
   state is non-finite: then the full formula runs with g = +0, which
   is the same decay on each finite element. */
value ft_nn_update_row(value params, value g2v, value d2v, intnat off, intnat n,
                       double rho, double eps, double d, double pre, value x,
                       value din)
{
  double *restrict w = (double *) Caml_ba_data_val(params) + off;
  double *restrict g2 = (double *) Caml_ba_data_val(g2v) + off;
  double *restrict d2 = (double *) Caml_ba_data_val(d2v) + off;
  const double *xs = (const double *) x;
  double *dn = (double *) din;
  double omr = 1. - rho;
  if (d == 0. && pre - pre == 0.) {
    if (all_finite(g2, n + 1) && all_finite(d2, n + 1)) {
      for (intnat j = 0; j <= n; j++) {
        g2[j] = rho * g2[j] + 0.;
        d2[j] = rho * d2[j] + 0.;
      }
    } else {
      for (intnat j = 0; j <= n; j++) step(w, g2, d2, j, 0., rho, omr, eps);
    }
    return Val_unit;
  }
  for (intnat i = 0; i < n; i++) dn[i] = dn[i] + w[i] * d;
  for (intnat i = 0; i < n; i++) step(w, g2, d2, i, 0. + d * xs[i], rho, omr, eps);
  step(w, g2, d2, n, 0. + d, rho, omr, eps);
  return Val_unit;
}

value ft_nn_update_row_byte(value *argv, int argn)
{
  (void) argn;
  return ft_nn_update_row(argv[0], argv[1], argv[2], Long_val(argv[3]),
                          Long_val(argv[4]), Double_val(argv[5]),
                          Double_val(argv[6]), Double_val(argv[7]),
                          Double_val(argv[8]), argv[9], argv[10]);
}
