"""mcalc benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload ideal-gb --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Workloads: ideal-gb, module-homology, hilbert-samuel, cli-mix (see
perfbench/workloads.py and perfbench/design.json). Each job starts when the
previous one returns. The run repeats full passes over the job list for about
--seconds seconds and checks every answer against its reference on every pass
(untimed). mcalc is imported from src/ of this checkout; without it the run
stops with an error before printing a result.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
processes that import mcalc, build the scenario registry and generate and
parse the workload's inputs), wall_s (time of a typical pass: the sum over
the job list of each job's median latency over the passes), job_p50_s and
job_p90_s (percentiles of those job latencies), peak_rss_mb and
correct_ratio. Times are scaled to a reference host speed (see
perfbench/hostspeed.py); the measured times are printed next to them.
--trace 1 runs one untraced and one traced pass and prints the
per-layer metrics instead (see perfbench/tracing.py). The last line of
standard output is one JSON object {correct, attempted, failed, metrics}.
`failed` counts wrong answers other than the listed seed defects; those are
reported as the complement of correct_ratio.

--smoke runs a tiny subset of every workload end to end, once untraced and
twice traced in fresh processes, and checks that the traced counts repeat
exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"),
              ("job_p90_s", "s"), ("peak_rss_mb", "MB"), ("correct_ratio", "ratio"))


def import_workloads():
    """The workloads module, with mcalc imported from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "mcalc", "__init__.py")):
        raise SystemExit(f"error: mcalc sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import mcalc
    if os.path.dirname(os.path.dirname(os.path.abspath(mcalc.__file__))) != SRC:
        raise SystemExit(f"error: imported mcalc from {mcalc.__file__}, not {SRC}")
    import workloads
    return workloads


@contextlib.contextmanager
def workdir():
    path = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def setup_probe(workload, seed):
    """Set-up in this fresh process: import, registry, inputs."""
    hostspeed.sample()
    before = hostspeed.sample()
    with workdir() as wd:
        t0 = time.perf_counter()
        workloads = import_workloads()
        workloads.registry()
        workloads.build(workload, seed, wd)
        elapsed = time.perf_counter() - t0
    after = hostspeed.sample()
    print(json.dumps({"measured_s": elapsed,
                      "setup_s": elapsed * hostspeed.REFERENCE_S * 2 / (before + after)}))


def probe_setup(workload, seed):
    """Set-up results of fresh processes, after one untimed warm-up that
    leaves the bytecode caches written."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    samples = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        if i:
            samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Runs passes over a job list and checks every answer."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.summaries = {}
        self.attempted = 0
        self.wrong = 0       # attempts with a wrong answer, listed defects included
        self.unexpected = 0  # attempts with a wrong answer outside the listed defects
        self.problems = {}   # job id -> last problem seen

    def run_pass(self, checking=contextlib.nullcontext, speed=None):
        """One pass; measured job latencies, also recorded in speed if given."""
        latencies = []
        clock = time.perf_counter
        for job in self.jobs:
            if speed is not None:
                speed.before_job()
            error = None
            t0 = clock()
            try:
                raw = job.run()
            except Exception as exc:  # a raising job is a failed job
                raw, error = None, f"raised {type(exc).__name__}: {exc}"
            t1 = clock()
            latencies.append(t1 - t0)
            if speed is not None:
                speed.job_done(t0, t1)
            with checking():
                self._check(job, raw, error)
        if speed is not None:
            speed.end_pass()
        return latencies

    def _check(self, job, raw, error):
        self.attempted += 1
        if error is None:
            try:
                summary, problem = job.inspect(raw)
            except Exception as exc:  # a malformed answer is a wrong answer
                summary, problem = None, f"check raised {type(exc).__name__}: {exc}"
        else:
            summary, problem = ("raised", error), error
        first = self.summaries.setdefault(job.id, summary)
        if problem is None and summary != first:
            problem = "answer differs from the first pass"
        if problem is not None:
            self.wrong += 1
            self.unexpected += job.known_wrong is None
            self.problems[job.id] = problem

    def report(self):
        known = {j.id for j in self.jobs if j.known_wrong}
        return [f"{'known-wrong' if job_id in known else 'FAILED'} {job_id}: {problem}"
                for job_id, problem in sorted(self.problems.items())]


def quantile(values, q):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[round(q * 100) - 1]


def measure(workload, seed, seconds, trace, tiny):
    workloads = import_workloads()
    setup_samples = [] if trace else probe_setup(workload, seed)
    warnings.simplefilter("ignore")
    workloads.registry()
    with workdir() as wd:
        golden = workloads.load_golden() if seed == 0 else None
        jobs = workloads.build(workload, seed, wd, golden)
        if tiny:
            jobs = [j for j in jobs if j.id in workloads.TINY[workload]]
        runner = Runner(jobs)
        if trace:
            metrics, lines = traced_run(runner)
        else:
            metrics, lines = timed_run(runner, seconds, setup_samples)
    return runner, metrics, lines + runner.report()


def _ratio_line(runner, passes):
    return (f"failed_ratio = {runner.wrong / runner.attempted:.6g} ratio "
            f"({runner.wrong} failed of {runner.attempted} attempted, "
            f"{runner.unexpected} of them outside the listed seed defects; "
            f"{passes} passes of {len(runner.jobs)} jobs)")


def _time_metrics(setups, passes):
    """The typical pass: each job at its median over the passes. wall_s is
    its sum and the percentiles are taken over its jobs, so that a burst of
    host load in one job of one pass moves none of them, and the number of
    passes does not move the percentiles."""
    per_job = [statistics.median(p[j] for p in passes) for j in range(len(passes[0]))]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_job),
        "job_p50_s": statistics.median(per_job),
        "job_p90_s": quantile(per_job, 0.9),
    }


def timed_run(runner, seconds, setup_samples):
    speed = hostspeed.HostSpeed()
    measured = []
    start = time.perf_counter()
    while True:
        measured.append(runner.run_pass(speed=speed))
        elapsed = time.perf_counter() - start
        typical = statistics.median(sum(p) for p in measured)
        if elapsed + typical / 2 >= seconds:
            break
    scaled = speed.scaled()
    n = len(runner.jobs)
    values = _time_metrics([s["setup_s"] for s in setup_samples],
                           [scaled[i:i + n] for i in range(0, len(scaled), n)])
    raw = _time_metrics([s["measured_s"] for s in setup_samples], measured)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["correct_ratio"] = 1 - runner.wrong / runner.attempted
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    lines = [f"{name} = {value:.6g} {unit}" + (
                f" (measured {raw[name]:.6g} s)" if name in raw else "")
             for name, (value, unit) in metrics.items()]
    lines.append(f"host slowdown against the reference speed: {speed.factor():.3f}; "
                 f"times are at the reference speed")
    lines.append(f"samples: {len(setup_samples)} set-ups, {len(measured)} passes "
                 f"of {n} jobs ({len(scaled)} job latencies)")
    lines.append(_ratio_line(runner, len(measured)))
    return metrics, lines


def traced_run(runner):
    import mcalc
    from tracing import Tracer

    untraced = sum(runner.run_pass())
    tracer = Tracer(mcalc)
    tracer.install()
    try:
        with tracer.tracing():
            traced = sum(runner.run_pass(checking=tracer.paused))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(traced - untraced)
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"untraced wall_s = {untraced:.6g} s; traced wall_s = {traced:.6g} s")
    lines.append(_ratio_line(runner, 2))
    return metrics, lines


def run_child(workload, seed, seconds, trace, tiny=False):
    """One workload in a fresh process: (exit code, stdout lines, stderr)."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv + (["--tiny"] if tiny else []), cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    return done.returncode, done.stdout.strip().splitlines(), done.stderr


def run_all(seed, seconds, trace):
    """Every workload, each in its own process; metrics keyed workload.metric."""
    workloads = import_workloads()
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        code, lines, err = run_child(workload, seed, seconds, trace)
        if code != 0:
            raise SystemExit(f"error: {workload} exited {code}: {err.strip()[-500:]}")
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def smoke():
    """Tiny subsets end to end; traced counts must repeat across processes."""
    workloads = import_workloads()
    bad = []
    for workload in workloads.WORKLOADS:
        results = []
        for trace in (0, 1, 1):
            code, lines, err = run_child(workload, 0, 0, trace, tiny=True)
            if code != 0:
                bad.append(f"{workload} --trace {trace}: exit {code}: {err.strip()[-300:]}")
                break
            results.append(json.loads(lines[-1]))
        else:
            if not all(r["correct"] for r in results):
                bad.append(f"{workload}: a tiny run reported correct = false")
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if v["unit"] in ("count", "ratio")} for r in results[1:]]
            if counts[0] != counts[1]:
                diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
                bad.append(f"{workload}: traced counts differ: {diff}")
            print(f"smoke {workload}: {len(counts[0])} counts repeat")
    for line in bad:
        print(f"smoke FAILED: {line}")
    return 1 if bad else 0


def main(argv=None):
    # on SIGTERM, unwind so that work dirs are removed and children stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="one workload, or 'all' for every one")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="run only each workload's smoke subset")
    p.add_argument("--smoke", action="store_true",
                   help="check tiny subsets of every workload and exit")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, args.trace)))
        return 0
    runner, metrics, lines = measure(
        args.workload, args.seed, args.seconds, args.trace, args.tiny)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": runner.unexpected == 0,
        "attempted": runner.attempted,
        "failed": runner.unexpected,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
