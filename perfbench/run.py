"""tortken benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Load model: one process, one client, a closed loop over the workload's fixed
job list (see workloads.py); no threads, and no worker processes except the
set-up probes, one at a time, and the two-worker pool timed in the traced
sweep run.

--trace 0 times set-up in fresh interpreters, then runs passes over the jobs
(at least two, more while they fit in --seconds) and prints the end-to-end
metrics.  --trace 1 runs one untraced and one traced pass and prints the
per-layer metrics; the spans are written to
.perfbench/trace-<workload>-<seed>.json.  Every job's output is checked after
its pass.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
TRACE_DIR = ROOT / ".perfbench"

JOB_CAP_S = 60       # a job running longer counts as failed and ends the run
RUN_CAP_S = 160      # no job starts or continues past this point of the run
SETUP_PROBES = 7
MIN_PASSES = 2       # every job is timed at least twice; memory is read then


class JobTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise JobTimeout()


class Run:
    """Job executions and failures of one benchmark run."""

    def __init__(self, seconds_cap: float):
        signal.signal(signal.SIGALRM, _on_alarm)
        self.deadline = time.perf_counter() + seconds_cap
        self.attempted = 0
        self.failed = 0
        self.stopped = False   # a job timed out; no further work is done

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def run_pass(self, jobs) -> tuple[list, list]:
        """Run the jobs in order.  Returns (job name, scaled seconds, measured
        seconds) per job, scaled by the reference times measured around and
        during the job, and the (job, output) pairs for `check_all`."""
        outputs, times = [], []
        ref = reference.reference_seconds()
        for job in jobs:
            cap = min(JOB_CAP_S, self.remaining())
            if cap <= 0:
                self.fail(job.name, "run time cap reached")
                break
            signal.setitimer(signal.ITIMER_REAL, cap)
            t0 = time.perf_counter()
            try:
                with reference.SpeedSampler() as sampler:
                    out = job.run()
            except JobTimeout:
                self.fail(job.name, f"no result after {cap:.0f} s")
                break
            except Exception as exc:  # a library error is a failed job
                out = exc
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            ref_after = reference.reference_seconds()
            times.append((job.name, sampler.scale(elapsed, ref, ref_after),
                          elapsed))
            ref = ref_after
            outputs.append((job, out))
        return times, outputs

    def check_all(self, outputs) -> None:
        """Check job outputs; called outside timed and traced intervals."""
        for job, out in outputs:
            self.attempted += 1
            reason = (f"raised {out!r}" if isinstance(out, Exception)
                      else job.check(out))
            if reason is not None:
                self.failed += 1
                print(f"FAILED {job.name}: {reason}", file=sys.stderr)

    def fail(self, name: str, reason: str) -> None:
        """A failure that ends the run."""
        self.attempted += 1
        self.failed += 1
        self.stopped = True
        print(f"FAILED {name}: {reason}; run ended", file=sys.stderr)

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0 and self.attempted > 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()}}


def _probe_setup(run: Run, workload: str, seed: int) -> float | None:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, min(JOB_CAP_S, run.remaining())))
    except subprocess.TimeoutExpired:
        run.fail("set-up", "no result in time")
        return None
    if proc.returncode != 0:
        run.fail("set-up", proc.stderr.strip())
        return None
    return float(proc.stdout.strip().splitlines()[-1])


def _timed_order(jobs) -> list:
    """Heavy jobs in order, each followed by every light job.  Light jobs are
    short, so they are timed several times, spread over the pass, and the
    speed drift of a shared machine hits fewer of their samples."""
    light = [job for job in jobs if job.light]
    order = []
    for job in jobs:
        if not job.light:
            order += [job] + light
    return order


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    run = Run(RUN_CAP_S)
    setups = []
    for _ in range(SETUP_PROBES):
        s = _probe_setup(run, workload, seed)
        if s is None:
            return run.result({})
        setups.append(s)

    import workloads
    jobs = workloads.build(workload, seed)
    order = _timed_order(jobs)
    samples: dict[str, list] = {job.name: [] for job in jobs}
    passes = 0
    start = time.perf_counter()
    while not run.stopped:
        t0 = time.perf_counter()
        times, outputs = run.run_pass(order)
        run.check_all(outputs)
        del outputs  # so that they do not add to the next pass's memory
        for name, t, _ in times:
            samples[name].append(t)
        passes += 1
        if passes == MIN_PASSES:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # past the minimum, start a pass only if it should end within --seconds
        end = time.perf_counter()
        if passes >= MIN_PASSES and (end + (end - t0) - start > seconds
                                     or run.remaining() < end - t0):
            break
    if run.stopped:
        return run.result({})
    median = {name: statistics.median(ts) for name, ts in samples.items()}
    return run.result({
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(median.values()), "s"),
        "light_s": (sum(median[j.name] for j in jobs if j.light), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    })


def traced_run(workload: str, seed: int) -> dict:
    import spans
    import workloads

    run = Run(RUN_CAP_S)
    setup = spans.Tracer()
    setup.install()
    try:
        jobs = workloads.build(workload, seed)
    finally:
        setup.uninstall()

    times, outputs = run.run_pass(jobs)
    run.check_all(outputs)
    plain_s = sum(t for _, t, _ in times)
    traced = spans.Tracer()
    if not run.stopped:
        traced.install()
        try:
            times, outputs = run.run_pass(jobs)
        finally:
            traced.uninstall()
        run.check_all(outputs)
        traced_s = sum(t for _, t, _ in times)

    # The fork pool: the dim-27 job without wrappers, sequential and then
    # with 2 workers, back to back.  These are measured seconds: the workers
    # run beside the reference loop's core, so scaling would not fit them.
    pool = {"1": 0.0, "2": 0.0}
    pool_jobs = [j for j in jobs if j.name == workloads.POOL_JOB]
    for threads in pool:
        if pool_jobs and not run.stopped:
            os.environ["TORTKEN_THREADS"] = threads
            try:
                times, outputs = run.run_pass(pool_jobs)
            finally:
                os.environ["TORTKEN_THREADS"] = "1"
            run.check_all(outputs)
            for _, _, measured in times:
                pool[threads] = measured
    if run.stopped:
        return run.result({})

    TRACE_DIR.mkdir(exist_ok=True)
    with open(TRACE_DIR / f"trace-{workload}-{seed}.json", "w") as fh:
        json.dump(setup.to_json("setup") + traced.to_json("pass"), fh)
    metrics = spans.per_layer_metrics(setup, traced)
    metrics["identcheck.sweep27_seq_s"] = (pool["1"], "s")
    metrics["identcheck.sweep27_par2_s"] = (pool["2"], "s")
    metrics["trace_overhead"] = (traced_s / plain_s, "ratio")
    return run.result(metrics)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "idspace", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tortken" / "__init__.py").is_file() or not GOLDEN.is_dir():
        print(f"error: run from a tortken checkout; {SRC / 'tortken'} or "
              f"{GOLDEN} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The library forks TORTKEN_THREADS sweep workers; keep untraced passes
    # sequential whatever the caller's environment says.
    os.environ["TORTKEN_THREADS"] = "1"
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
