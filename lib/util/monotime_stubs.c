/* CLOCK_MONOTONIC: the process-wide clock for every duration and
   deadline.

   Wall-clock time can be stepped by NTP: a duration measured across a
   step comes out negative or wildly skewed, and a deadline computed
   from it can fire early or never.  The monotonic clock only moves
   forward.  tv_sec fits a double with ~0.1 ns of slack for centuries
   of uptime, so one float return is exact enough for nanosecond-scale
   kernel timing. */

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#include <time.h>

CAMLprim value ft_monotime_now_s(value unit)
{
  CAMLparam1(unit);
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  CAMLreturn(caml_copy_double((double) ts.tv_sec + (double) ts.tv_nsec * 1e-9));
}
