#include <time.h>
#include <caml/mlvalues.h>

/* Monotonic nanoseconds.  CLOCK_MONOTONIC is also the clock the OCaml
   runtime stamps its runtime_events with, so benchmark spans and GC
   phase spans share one timeline. */
value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
