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
  double d2 = rho * d2v[j] + omr * s * s;
  g2v[j] = g2;
  d2v[j] = d2;
  w[j] = w[j] + s;
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

/* A whole layer's AdaDelta step on the round's mean gradient: every
   one of its [m] parameters steps with [g[j] / count], and the sums
   are zeroed for the next round.  An idle row needs no branch: for
   g = +-0 on finite state the formula is exactly a decay. */
value ft_nn_step(value params, value g2v, value d2v, value gv, intnat m, double rho,
                 double eps, double count)
{
  double *restrict w = (double *) Caml_ba_data_val(params);
  double *restrict g2 = (double *) Caml_ba_data_val(g2v);
  double *restrict d2 = (double *) Caml_ba_data_val(d2v);
  double *restrict g = (double *) Caml_ba_data_val(gv);
  double omr = 1. - rho;
  for (intnat j = 0; j < m; j++) {
    step(w, g2, d2, j, g[j] / count, rho, omr, eps);
    g[j] = 0.;
  }
  return Val_unit;
}

value ft_nn_step_byte(value *argv, int argn)
{
  (void) argn;
  return ft_nn_step(argv[0], argv[1], argv[2], argv[3], Long_val(argv[4]),
                    Double_val(argv[5]), Double_val(argv[6]), Double_val(argv[7]));
}
