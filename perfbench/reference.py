"""Speed reference that takes the machine's speed drift out of the timings.

On a shared machine the speed of one core drifts by up to 1.7x for stretches
of seconds to minutes.  The benchmark times `reference_work`, a fixed loop
of the dict and int operations the library's inner loops are made of, right
before and after every job and, through `SpeedSampler`, every 0.1 s of CPU
time while a job runs.  It reports each job time scaled to the speed at
which `reference_work` takes `REF_S`:

    reported = (measured - sampling time) * REF_S / (mean reference time)

so the figures are seconds on the recording machine at its usual speed.  A
change to tortken moves the job times and not the reference, which depends
only on the interpreter and this file.
"""

import signal
import time

REF_ITERS = 14000
# Usual time of reference_work() on the machine the figures were recorded
# on (Python 3.11.7, 2 cores); it only sets the scale of reported times.
REF_S = 0.0045
SAMPLE_ITERS = 1400          # one in-job sample: a tenth of reference_work()
SAMPLE_EVERY_S = 0.1         # of process CPU time


def reference_work(iters: int = REF_ITERS) -> int:
    acc: dict = {}
    total = 0
    for i in range(iters):
        k = (i * 7) % 61
        acc[k] = (acc.get(k, 0) + i * 3) % 10007
        total += acc[k]
    return total


def reference_seconds() -> float:
    """Time of reference_work() now: the faster of two calls, because an
    interrupt only ever adds time."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """A measured interval scaled by the reference times around it."""
    return seconds * 2 * REF_S / (ref_before + ref_after)


class SpeedSampler:
    """Times a tenth of reference_work() from a SIGPROF handler while a job
    runs, so that a speed change in the middle of a long job is seen."""

    def __init__(self):
        self.samples: list[float] = []   # as reference_work() times
        self.spent = 0.0                 # time taken by the handler

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        reference_work(SAMPLE_ITERS)
        t1 = time.perf_counter()
        self.samples.append((t1 - t0) * REF_ITERS / SAMPLE_ITERS)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scale(self, seconds: float, ref_before: float, ref_after: float) -> float:
        """The job's measured time, less the sampling, at the usual speed."""
        refs = [ref_before, ref_after] + self.samples
        return (seconds - self.spent) * REF_S * len(refs) / sum(refs)
