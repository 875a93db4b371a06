/* The Q-network's hot loops (DESIGN.md §12), one whole layer per
   call: the dense forward kernel over a block of samples, the block's
   backward passes into the round's gradient sums, and the round's
   AdaDelta step.  The forward is the only one: inference is a block of
   one, a training round's target rows and its caching forward are
   blocks of up to 16, and every weight it loads serves the whole
   block.

   All are bit-for-bit the scalar OCaml loops of test_nn's reference
   (a forward per sample, gradients summed into zeroed buffers in
   sample order, their mean, then AdaDelta over every parameter):
   every value comes from the same IEEE operations in the same order.
   Vectorizing only runs independent elements side by side (the
   samples of a forward block, the inputs of a gradient row, the
   parameters of a step), with [sqrtpd]/[divpd] correctly rounded like
   their scalar forms, and a sum stays in a register only while its
   next terms are added in the reference's order.  That holds under the
   flags in dune and no others: -ffp-contract=off (no FMA, which rounds
   once where the reference rounds twice), -fno-math-errno ([sqrt] as
   the instruction, not a libm call kept for errno), nothing
   host-specific: the lanes are GCC vector extensions, with no
   instruction-set header or builtin (CI's lint checks both).

   The OCaml callers check every bound and width; nothing here checks
   them, allocates or raises ([@@noalloc]). */

#define CAML_NAME_SPACE
#include <caml/bigarray.h>
#include <caml/mlvalues.h>

#include <math.h>
#include <string.h>

/* A [float array] is read in place as a C array of doubles. */
#ifndef FLAT_FLOAT_ARRAY
#error "nn_stubs.c needs flat float arrays"
#endif

/* Two samples of a block side by side: SSE2 on x86-64, NEON on arm64.
   Each lane is the scalar IEEE operation. */
typedef double v2d __attribute__((vector_size(16)));
typedef long long v2i __attribute__((vector_size(16)));

/* Float arrays are only 8-byte aligned: unaligned loads and stores. */
static inline v2d load2(const double *p)
{
  v2d v;
  memcpy(&v, p, sizeof v);
  return v;
}

static inline void store2(double *p, v2d v) { memcpy(p, &v, sizeof v); }

/* The ReLU as [Float.max 0.]: v > 0 or nan keeps v, anything else
   (-0 included) becomes +0; the vector form keeps v's bits under an
   all-ones mask. */
static inline double relu1(double v) { return v > 0. || v != v ? v : 0.; }

static inline v2d relu2(v2d v)
{
  v2d zero = { 0., 0. };
  v2i keep = (v > zero) | (v != v);
  return (v2d) ((v2i) v & keep);
}

/* Outputs [o, o + ob) of samples [j, j + 2 nv) of a block: every
   weight [w_oi] loaded once serves all 2 nv samples.  Each lane's
   accumulator starts from the bias and adds [w_oi * x_ji] in
   ascending [i].  [ob] and [nv] are compile-time constants at every
   call, so the accumulators live in registers. */
static inline __attribute__((always_inline)) void
tile2(const double *restrict w, intnat stride, intnat n_in, intnat s, const double *x,
      double *pre, double *act, int relu, intnat o, intnat j, int ob, int nv)
{
  const double *r = w + o * stride, *xi = x + j;
  v2d a[2][4];
  for (int k = 0; k < ob; k++)
    for (int v = 0; v < nv; v++) a[k][v] = (v2d) { r[k * stride + n_in], r[k * stride + n_in] };
  for (intnat i = 0; i < n_in; i++, xi += s) {
    v2d xv[4];
    for (int v = 0; v < nv; v++) xv[v] = load2(xi + 2 * v);
    for (int k = 0; k < ob; k++) {
      v2d wv = { r[k * stride + i], r[k * stride + i] };
      for (int v = 0; v < nv; v++) a[k][v] += wv * xv[v];
    }
  }
  for (int k = 0; k < ob; k++)
    for (int v = 0; v < nv; v++) {
      intnat at = (o + k) * s + j + 2 * v;
      store2(pre + at, a[k][v]);
      if (relu) store2(act + at, relu2(a[k][v]));
    }
}

/* The same for one sample [j] (the last of an odd block): scalar
   accumulators, [ob] outputs per pass over the input. */
static inline __attribute__((always_inline)) void
tile1(const double *restrict w, intnat stride, intnat n_in, intnat s, const double *x,
      double *pre, double *act, int relu, intnat o, intnat j, int ob)
{
  const double *r = w + o * stride, *xi = x + j;
  double a[8];
  for (int k = 0; k < ob; k++) a[k] = r[k * stride + n_in];
  for (intnat i = 0; i < n_in; i++, xi += s)
    for (int k = 0; k < ob; k++) a[k] += r[k * stride + i] * *xi;
  for (int k = 0; k < ob; k++) {
    intnat at = (o + k) * s + j;
    pre[at] = a[k];
    if (relu) act[at] = relu1(a[k]);
  }
}

/* Outputs [o, o + ob) of the first [even] samples, eight at a time,
   then four, then two. */
static inline __attribute__((always_inline)) void
samples(const double *restrict w, intnat stride, intnat n_in, intnat s, const double *x,
        double *pre, double *act, int relu, intnat o, intnat even, int ob)
{
  intnat j = 0;
  for (; j + 8 <= even; j += 8) tile2(w, stride, n_in, s, x, pre, act, relu, o, j, ob, 4);
  if (j + 4 <= even) {
    tile2(w, stride, n_in, s, x, pre, act, relu, o, j, ob, 2);
    j += 4;
  }
  if (j < even) tile2(w, stride, n_in, s, x, pre, act, relu, o, j, ob, 1);
}

/* Every output of sample [j] alone, eight per pass, then four, then
   one. */
static inline __attribute__((always_inline)) void
alone(const double *restrict w, intnat stride, intnat n_in, intnat n_out, intnat s,
     const double *x, double *pre, double *act, int relu, intnat j)
{
  intnat o = 0;
  for (; o + 8 <= n_out; o += 8) tile1(w, stride, n_in, s, x, pre, act, relu, o, j, 8);
  for (; o + 4 <= n_out; o += 4) tile1(w, stride, n_in, s, x, pre, act, relu, o, j, 4);
  for (; o < n_out; o++) tile1(w, stride, n_in, s, x, pre, act, relu, o, j, 1);
}

/* One dense layer over a block of [s >= 1] samples, stored
   sample-contiguous: input [i] of sample [j] at [x[i * s + j]], and
   output [o] at [o * s + j] of [pre] (the pre-activation) and, under
   [relu], of [act] (its ReLU).  [pre] and [act] may be one array: the
   ReLU is stored last.  [x] must not overlap either.  Output tiles
   run outermost, so a tile's weight rows stay in L1 while every
   sample of the block passes through them. */
value ft_nn_forward(value p, intnat n_in, intnat n_out, intnat s, value x, value pre,
                    value act, value relu)
{
  const double *w = (const double *) Caml_ba_data_val(p);
  const double *xs = (const double *) x;
  double *pv = (double *) pre, *av = (double *) act;
  int r = Bool_val(relu);
  intnat stride = n_in + 1, even = s & ~(intnat) 1, o;
  for (o = 0; o + 2 <= n_out; o += 2) samples(w, stride, n_in, s, xs, pv, av, r, o, even, 2);
  if (o < n_out) samples(w, stride, n_in, s, xs, pv, av, r, o, even, 1);
  /* A block of one is inference's case: a constant [s] lets gcc pair
     outputs in vector lanes over a contiguous input. */
  if (s == 1) alone(w, stride, n_in, n_out, 1, xs, pv, av, r, 0);
  else if (even < s) alone(w, stride, n_in, n_out, s, xs, pv, av, r, even);
  return Val_unit;
}

value ft_nn_forward_byte(value *argv, int argn)
{
  (void) argn;
  return ft_nn_forward(argv[0], Long_val(argv[1]), Long_val(argv[2]), Long_val(argv[3]),
                       argv[4], argv[5], argv[6], argv[7]);
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

/* The backward's gradient [d] of row [o] for one sample: its [dout]
   behind the ReLU gate (none on the [last] layer).  Returns 0 for a
   row the sample skips: d = +-0 and a finite pre-activation [p] mean
   finite weights and inputs, so each [d * x] and [w * d] is +-0, and
   adding +-0 changes neither a sum that started at +0 nor [din] (a
   round-to-nearest sum is -0 only when both terms are). */
static inline int gradient(int last, double p, double dout, double *d)
{
  *d = last || p > 0. ? dout : 0.;
  return !(*d == 0. && p - p == 0.);
}

/* Sample [j]'s input gradient, overwriting [din]'s row: [sum_o w_oi *
   d_o] over the rows it does not skip, in ascending [o].  Rows go in
   chunks of 64; eight inputs at a time stay in registers while every
   row of the chunk adds into them. */
static void input_gradient(const double *w, intnat n, intnat n_out, intnat s, int last,
                           const double *dout, const double *pre, intnat j, double *din)
{
  const double *dv = dout + j * n_out;
  double *dn = din + j * n;
  for (intnat i = 0; i < n; i++) dn[i] = 0.;
  for (intnat o0 = 0; o0 < n_out; o0 += 64) {
    double dd[64];
    const double *wr[64];
    int na = 0;
    for (intnat o = o0; o < n_out && o < o0 + 64; o++)
      if (gradient(last, pre[o * s + j], dv[o], dd + na)) wr[na++] = w + o * (n + 1);
    intnat i = 0;
    for (; i + 8 <= n; i += 8) {
      v2d a[4];
      for (int v = 0; v < 4; v++) a[v] = load2(dn + i + 2 * v);
      for (int k = 0; k < na; k++) {
        v2d dk = { dd[k], dd[k] };
        for (int v = 0; v < 4; v++) a[v] += load2(wr[k] + i + 2 * v) * dk;
      }
      for (int v = 0; v < 4; v++) store2(dn + i + 2 * v, a[v]);
    }
    for (; i < n; i++)
      for (int k = 0; k < na; k++) dn[i] = dn[i] + wr[k][i] * dd[k];
  }
}

/* Every row's weight and bias sums gain the block's samples
   [j0, j0 + js) (js <= 16), in ascending order, over the samples each
   row does not skip.  Inputs go in pieces of 128, copied one row per
   sample into [xt]; eight sums at a time stay in registers while every
   sample adds into them. */
static void weight_gradients(double *g, intnat n, intnat n_out, intnat s, int last,
                             const double *dout, const double *pre, const double *x, intnat j0,
                             int js)
{
  for (intnat i0 = 0; i0 == 0 || i0 < n; i0 += 128) {
    intnat ni = n - i0 < 128 ? n - i0 : 128;
    double xt[16][128];
    for (int k = 0; k < js; k++)
      for (intnat i = 0; i < ni; i++) xt[k][i] = x[(i0 + i) * s + j0 + k];
    for (intnat o = 0; o < n_out; o++) {
      double dd[16];
      const double *xr[16];
      int na = 0;
      for (int k = 0; k < js; k++)
        if (gradient(last, pre[o * s + j0 + k], dout[(j0 + k) * n_out + o], dd + na))
          xr[na++] = xt[k];
      double *gr = g + o * (n + 1);
      intnat i = 0;
      for (; i + 8 <= ni; i += 8) {
        double *gi = gr + i0 + i;
        v2d a[4];
        for (int v = 0; v < 4; v++) a[v] = load2(gi + 2 * v);
        for (int k = 0; k < na; k++) {
          v2d dk = { dd[k], dd[k] };
          for (int v = 0; v < 4; v++) a[v] += dk * load2(xr[k] + i + 2 * v);
        }
        for (int v = 0; v < 4; v++) store2(gi + 2 * v, a[v]);
      }
      for (; i < ni; i++)
        for (int k = 0; k < na; k++) gr[i0 + i] = gr[i0 + i] + dd[k] * xr[k][i];
      if (i0 == 0)
        for (int k = 0; k < na; k++) gr[n] = gr[n] + dd[k];
    }
  }
}

/* A block of [s] samples' backward passes through a dense layer of
   [n_out] rows of [n] weights and a bias.  [pre] and [x] are the
   forward's blocks (sample-contiguous: entry [k] of sample [j] at
   [k * s + j]); [dout] and [din] hold one row per sample
   ([j * n_out + o], [j * n + i]).  Unless [din] is empty (the first
   layer's, which nothing reads), each sample's row is overwritten with
   its input gradient; each weight's sum gains [d * x_ji] and each
   bias's [d], sample after sample, into the round's summed gradient
   [gv] (the parameters' layout).  Every value takes the same IEEE
   operations in the same order as one sample's backward after
   another: a sum is only held in a register while more terms are
   added in that order.  The weights do not move until [ft_nn_step],
   so every sample of a round reads the same ones. */
value ft_nn_accumulate(value params, value gv, intnat n, intnat n_out, intnat s, value last,
                       value dout, value pre, value x, value din)
{
  const double *w = (const double *) Caml_ba_data_val(params);
  double *g = (double *) Caml_ba_data_val(gv);
  const double *dv = (const double *) dout, *pv = (const double *) pre;
  int l = Bool_val(last);
  if (Wosize_val(din) > 0)
    for (intnat j = 0; j < s; j++) input_gradient(w, n, n_out, s, l, dv, pv, j, (double *) din);
  for (intnat j0 = 0; j0 < s; j0 += 16)
    weight_gradients(g, n, n_out, s, l, dv, pv, (const double *) x, j0,
                     s - j0 < 16 ? (int) (s - j0) : 16);
  return Val_unit;
}

value ft_nn_accumulate_byte(value *argv, int argn)
{
  (void) argn;
  return ft_nn_accumulate(argv[0], argv[1], Long_val(argv[2]), Long_val(argv[3]),
                          Long_val(argv[4]), argv[5], argv[6], argv[7], argv[8], argv[9]);
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
