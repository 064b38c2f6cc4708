(** One shared measurement clock for every benchmark entry point.

    [secpolc bench] used to time with [Sys.time] (process CPU seconds)
    while [bench/main.exe] timed with wall-clock seconds — two numbers
    that silently disagree the moment anything sleeps, blocks or runs on
    more than one core.  Every timing loop now reads this module instead,
    so a ns/op from one harness is comparable with a ns/op from the
    other.

    The clock is [clock_gettime(CLOCK_MONOTONIC)] through a small C
    stub: it never steps backwards and never jumps with the wall clock
    (NTP steps, [settimeofday]), so intervals, deadlines and latency
    histograms stay right across a clock adjustment.  Readings share no
    state, so every domain reads the clock without contending on a
    common word. *)

val now : unit -> float
(** Monotonic time, in seconds.  Absolute values are only meaningful
    relative to other [now] readings in the same process (the origin is
    unspecified — on Linux, boot). *)

val elapsed_ns : since:float -> float
(** Nanoseconds elapsed since an earlier [now] reading (never negative). *)

val resolution : float
(** Smallest interval this clock can distinguish, in seconds, as
    reported by [clock_getres] (1 ns on Linux).  Two [now] readings
    closer than this may compare equal; timing code dividing by an
    elapsed interval should clamp to [resolution] rather than
    special-case zero. *)
