/* CLOCK_MONOTONIC for Secpol_obs.Clock: seconds as a double.  The
   native entry point returns an unboxed double and allocates nothing,
   so a clock read costs one vDSO call. */

#define _POSIX_C_SOURCE 199309L
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

static double seconds(const struct timespec *ts)
{
  return (double)ts->tv_sec + (double)ts->tv_nsec * 1e-9;
}

double secpol_clock_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return seconds(&ts);
}

value secpol_clock_now_byte(value unit)
{
  return caml_copy_double(secpol_clock_now(unit));
}

value secpol_clock_resolution(value unit)
{
  struct timespec ts;
  (void)unit;
  if (clock_getres(CLOCK_MONOTONIC, &ts) != 0) return caml_copy_double(1e-9);
  return caml_copy_double(seconds(&ts));
}
