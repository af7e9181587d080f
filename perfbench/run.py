"""Benchmark of the eastwest learner, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload trains20-induce --seed 0 --seconds 25 --trace 0

`--trace 0` measures the end-to-end metrics with no tracing hooks, each
unit's time corrected for the host's speed as sampled during it (speed.py);
`--trace 1` runs every unit untraced and then traced, and reports the
per-layer metrics plus the tracing overhead.  Every output is checked;
the last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  `--record-goldens` rewrites goldens.json from the
current code.  Results and spans are also written to `.perfbench_run/`.
"""

from __future__ import annotations

import os

# one process, no worker threads: pin BLAS pools before numpy is imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
GOLDENS = HERE / "goldens.json"

# a fresh interpreter doing what every CLI command does before its real work,
# timed from inside with the host speed sampled; prints [raw, corrected]
SETUP_CODE = """
import json, sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
import speed
sampler = speed.Sampler()
sampler.start()
start = perf_counter()
import eastwest.cli
eastwest.cli.features.build_feature_table("full")
end = perf_counter()
sampler.stop()
print(json.dumps([end - start, sampler.corrected(start, end)]))
"""
SETUP_REPEATS = 7


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.record_goldens and args.workload is None:
        parser.error("--workload is required")
    return args


def measure_setup() -> tuple[float, list[list[float]]]:
    """Median corrected time of fresh interpreters importing the CLI and building the table."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(HERE)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)  # fills bytecode caches
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        times.append(json.loads(out.stdout))
    return statistics.median(corrected for _, corrected in times), times


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        # the ceiling keeps git from finding a repository above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


class Runner:
    """Runs passes of one workload and tallies attempted and failed operations."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.intervals: list[tuple[str, float, float]] = []  # (unit, start, end)

    def run_unit(self, unit, tracer=None) -> float:
        self.attempted += 1
        start = perf_counter()
        try:
            if tracer is None:
                output = self.workload.run(unit)
            else:
                tracer.install()
                try:
                    output = self.workload.run(unit, tracer)
                finally:
                    tracer.uninstall()
        except Exception as exc:  # the program failed this operation
            self.fail([f"{unit}: raised {exc!r}"])
            return perf_counter() - start
        elapsed = perf_counter() - start
        _, problems = self.workload.check(unit, output)
        self.fail(problems)
        return elapsed

    def fail(self, problems):
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def run_pass(self):
        """One pass over the workload's units, recording when each ran."""
        for unit in self.workload.units():
            start = perf_counter()
            elapsed = self.run_unit(unit)
            self.intervals.append((unit, start, start + elapsed))

    def held_out(self):
        for unit in self.workload.held_out_units():
            self.run_unit(unit)


class Clock:
    """Closed loop over --seconds: start another round only if it should fit."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.start = perf_counter()
        self.last = None
        self.rounds: list[float] = []

    def another(self) -> bool:
        now = perf_counter()
        if self.last is None:
            self.last = now
            return True
        self.rounds.append(now - self.last)
        self.last = now
        return now - self.start + statistics.median(self.rounds) <= self.seconds


def timed(runner, seconds) -> dict:
    from speed import Sampler

    sampler = Sampler()
    clock = Clock(seconds)
    sampler.start()
    try:
        while clock.another():
            runner.run_pass()
    finally:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    best_fitness, complexity = runner.workload.quality()
    by_unit = defaultdict(list)
    for unit, start, end in runner.intervals:
        by_unit[unit].append(sampler.corrected(start, end))
    medians = [statistics.median(times) for times in by_unit.values()]
    return {
        "metrics": {
            # one pass: the sum over its units of each unit's median time
            "wall_s": (sum(medians), "s"),
            # the units differ in size, so the median of their medians
            "unit_p50_s": (statistics.median(medians), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "best_fitness": (best_fitness, "cost"),
            "program_complexity": (complexity, "size"),
        },
        "samples": {
            "units": dict(by_unit),
            "raw_units": [end - start for _, start, end in runner.intervals],
            "reference_s": sampler.durations,
        },
        "speed_scale": sampler.scale(),
    }


def traced(runner, seconds, spans_path) -> dict:
    """Untraced and traced runs of every unit; per-layer metrics of the traced ones."""
    from spans import Tracer, layer_metrics, median_metrics

    workload = runner.workload
    tracer = Tracer()
    plain, with_spans, per_pass = [], [], []
    clock = Clock(seconds)
    while clock.another():
        # untraced and traced runs of each unit back to back, so that drift
        # in machine speed cancels out of the overhead
        first = len(tracer.spans)
        tracer.distinct.clear()
        plain.append(0.0)
        with_spans.append(0.0)
        for unit in workload.units():
            plain[-1] += runner.run_unit(unit)
            with_spans[-1] += runner.run_unit(unit, tracer)
        tracer.flush_distinct()
        metrics = layer_metrics(tracer.spans, first, tracer.distinct, workload.generations)
        runner.attempted += 1  # the pass's liveness and consistency checks
        runner.fail(trace_problems(workload, tracer.spans[first:], metrics, per_pass))
        per_pass.append(metrics)
    tracer.dump(spans_path)
    metrics = median_metrics(per_pass)
    metrics["trace.overhead_s"] = statistics.median(with_spans) - statistics.median(plain)
    return {
        "metrics": {name: (value, metric_unit(name)) for name, value in metrics.items()},
        "samples": {"untraced_passes": plain, "traced_passes": with_spans},
    }


def trace_problems(workload, pass_spans, metrics, earlier) -> list[str]:
    called = {s[0] for s in pass_spans}
    problems = [f"hook {h} recorded no calls" for h in sorted(workload.required_hooks - called)]
    for name, want in workload.expected_counts().items():
        if metrics[name] != want:
            problems.append(f"{name} = {metrics[name]}, expected {want}")
    if metrics["tree.induce_calls"] != metrics["tree.prune_calls"]:
        problems.append("tree.induce_calls differs from tree.prune_calls")
    counts = {k: v for k, v in metrics.items() if not k.endswith("_s")}
    if earlier and counts != {k: earlier[0][k] for k in counts}:
        problems.append("per-layer counters differ between traced passes")
    return [f"trace: {p}" for p in problems]


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def record_goldens():
    from workloads import WORKLOADS

    goldens = {}
    for name, cls in WORKLOADS.items():
        workdir = OUT / f"record-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            runner = Runner(cls(workdir, 0, None))
            runner.run_pass()
            if runner.problems:
                raise SystemExit("\n".join(runner.problems))
            goldens[name] = runner.workload.golden()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eastwest" / "cli.py").is_file():
        print(f"error: no eastwest sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_goldens:
        record_goldens()
        return 0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    goldens = json.loads(GOLDENS.read_text())[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup = None if args.trace else measure_setup()
        runner = Runner(WORKLOADS[args.workload](workdir, args.seed, goldens))
        if args.trace:
            result = traced(runner, args.seconds, OUT / f"spans-{tag}.json")
        else:
            result = timed(runner, args.seconds)
            result["metrics"]["setup_s"] = (setup[0], "s")
            result["samples"]["setup"] = setup[1]
        runner.held_out()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    summary = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(
            {**summary, "workload": args.workload, "seed": args.seed, "environment": env,
             "samples": result["samples"], "speed_scale": result.get("speed_scale"),
             "problems": runner.problems},
            indent=1,
        )
        + "\n"
    )
    for problem in runner.problems:
        print(f"FAIL {problem}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, m in sorted(metrics.items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if "speed_scale" in result:
        raw_p50 = statistics.median(result["samples"]["raw_units"])
        print(f"host speed scale = {result['speed_scale']:.4g} "
              f"(uncorrected unit_p50_s = {raw_p50:.6g} s)")
    print(f"fail_frac = {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} of {runner.attempted})")
    print("samples: " + ", ".join(
        f"{k} {({u: len(t) for u, t in v.items()} if isinstance(v, dict) else len(v))}"
        for k, v in result["samples"].items()))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
