/* Resource caps for the measurement worker (Sandbox, DESIGN.md §11).

   The long-lived worker re-arms these before every request:
   RLIMIT_AS turns a runaway allocation into a failed mmap — which
   OCaml surfaces as Out_of_memory, reported over the pipe — instead
   of an OOM-killed tuner, and RLIMIT_CPU is the backstop against a
   spinning kernel should the parent's SIGKILL watchdog itself die.
   Only the soft limit moves, so a later request may raise it again
   (an unprivileged process can never raise its hard limit).  Both
   limits apply to the whole worker process, which is exactly the
   containment unit. */

#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#include <errno.h>
#include <string.h>
#include <sys/resource.h>

CAMLprim value ft_sandbox_setrlimit(value vres, value vlimit)
{
  CAMLparam2(vres, vlimit);
  int resource = Int_val(vres) == 0 ? RLIMIT_AS : RLIMIT_CPU;
  long limit = Long_val(vlimit);
  struct rlimit rl;
  if (getrlimit(resource, &rl) != 0)
    caml_failwith(strerror(errno));
  /* negative: lift the soft limit to the hard one; never above it */
  if (limit >= 0 && (rl.rlim_max == RLIM_INFINITY || (rlim_t) limit < rl.rlim_max))
    rl.rlim_cur = (rlim_t) limit;
  else
    rl.rlim_cur = rl.rlim_max;
  if (setrlimit(resource, &rl) != 0)
    caml_failwith(strerror(errno));
  CAMLreturn(Val_unit);
}

/* Chaos hook: a genuine segfault (null store), so the containment
   tests exercise the real WSIGNALED path rather than a simulation. */
CAMLprim value ft_sandbox_segv(value unit)
{
  CAMLparam1(unit);
  volatile int *p = (volatile int *) 0;
  *p = 42;
  CAMLreturn(Val_unit);
}
