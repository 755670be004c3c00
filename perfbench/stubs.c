/* Monotonic clock, timer slack and CPU affinity for the benchmark
   harness. */
#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <sys/prctl.h>
#include <caml/mlvalues.h>

value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* Tighten this thread's timer slack to 1 ns so paced sleeps wake on
   time instead of up to 50 us late. */
value perfbench_tight_timer_slack(value unit)
{
  (void)unit;
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  return Val_unit;
}

/* The index of the [n]-th CPU this thread may run on, or -1. */
value perfbench_nth_allowed_cpu(value n)
{
  cpu_set_t set;
  long want = Long_val(n), seen = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_long(-1);
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &set) && seen++ == want) return Val_long(cpu);
  return Val_long(-1);
}

/* Restrict the calling thread (and what it forks from now on) to one
   CPU; false if the kernel refuses. */
value perfbench_pin_cpu(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Long_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
