/* Monotonic nanosecond clock: Unix.gettimeofday only resolves whole
   microseconds, coarser than several of the layers this benchmark times. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value elsbench_clock_s(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
