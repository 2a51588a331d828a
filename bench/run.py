"""qmol benchmark: run one workload in this process and report its metrics.

    python3 bench/run.py --workload eigen_maps --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1   # each workload in a fresh process

Workloads are `eigen_maps`, `dynamics_maps` and `crosschecks` (see
workloads.py and README.md).  qmol is imported from `src/` next to this
directory; without it the benchmark exits with code 2 and prints no result.

`--trace 0` measures the end-to-end metrics with no tracing installed.
`--trace 1` runs every request twice, traced and untraced, in alternating
order, and reports the per-layer metrics of the traced runs plus the
tracing overhead.  Both modes repeat whole passes of the seeded request
list until `--seconds` have gone by, so every run sees the same mix, and
check every output.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The same result, with the
environment, is written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 5
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
WORKLOAD_NAMES = ("eigen_maps", "dynamics_maps", "crosschecks")


def load_qmol():
    """Import qmol from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "qmol" / "__init__.py").is_file():
        print(f"bench: no qmol source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import qmol

    if Path(qmol.__file__).resolve().parent != SRC / "qmol":
        print(f"bench: imported qmol from {qmol.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return qmol


# -- environment ----------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def host_probe() -> float:
    """Seconds for a fixed 41x41 eigen map: shows host speed next to the figures."""
    import qmol

    params = qmol.SystemParams(delta1=5.0, delta2=5.0)
    start = time.perf_counter()
    qmol.eigen_concurrence_map(params, 1, eps_steps=41)
    return time.perf_counter() - start


def setup_times() -> list[float]:
    """Seconds until qmol served a request, for each of SETUP_RUNS fresh interpreters."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        ready, code = done.stdout.split()
        if code != "0":
            raise RuntimeError(f"warm-up request exited {code}")
        times.append(float(ready) - start)
    return times


# -- running requests -------------------------------------------------------------


class Runner:
    """Executes requests of one workload and keeps the per-request record."""

    def __init__(self, workload, seed: int, workdir: Path, tracer=None) -> None:
        self.workload = workload
        self.requests = workload.requests(seed)
        self.workdir = workdir
        self.tracer = tracer
        self.check_rng = np.random.default_rng([seed, 0])
        # Latencies of each request of the pass, one per pass it succeeded in.
        self.latencies: dict[int, list[float]] = {}
        self.items: dict[int, int] = {}
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.digests: list[str] = []
        self._request_id = 0

    def _execute(self, request, traced: bool):
        """(latency, output or None, error text) of one execution."""
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.install()
            tracer.begin_request(self._request_id)
        start = time.perf_counter()
        output, error = None, ""
        try:
            output = self.workload.execute(request, self.workdir)
        except Exception as exc:  # a failed request is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if tracer is not None:
            latency = tracer.end_request()
            tracer.uninstall()
        self._request_id += 1
        if output is not None:
            self.workload.collect(request, output, self.workdir)
        return latency, output, error

    def run_pass(self, requests=None) -> None:
        """One pass over the request list; traced and untraced if a tracer is set."""
        self.passes += 1
        for index, request in enumerate(self.requests if requests is None else requests):
            self.attempted += 1
            if self.tracer is None:
                runs = [(False,) + self._execute(request, False)]
            else:
                order = (True, False) if index % 2 == 0 else (False, True)
                runs = [(traced,) + self._execute(request, traced) for traced in order]
            errors = [e for _, _, _, e in runs if e]
            outputs = {traced: out for traced, _, out, _ in runs}
            if not errors:
                digests = {self.workload.digest(out) for out in outputs.values()}
                if len(digests) != 1:
                    errors.append("traced and untraced outputs differ")
                self.digests.append(digests.pop())
                errors += self.workload.check(request, outputs[self.tracer is not None], self.check_rng)
            if errors:
                self.failed += 1
                self.failures.append(f"{request.kind} {' '.join(request.argv)}: {errors}")
                continue
            for traced, latency, _, _ in runs:
                if traced:
                    self.traced_s += latency
                elif self.tracer is not None:
                    self.untraced_s += latency
                else:
                    self.latencies.setdefault(index, []).append(latency)
                    self.items[index] = request.items


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples above it."""
    fitting = [p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND]
    return fitting[-1] if fitting else TAIL_LADDER[0]


def end_to_end(runner: Runner, setup_s: float) -> tuple[dict, dict]:
    """Metrics from each request's best latency over the passes of the run.

    The host alternates between a fast and a ~2x slower speed for stretches
    of seconds to a minute, so a median over all executions swings with the
    share of the run spent slow.  Best-of-passes per request measures qmol
    at the host's full speed; the medians over all executions are kept in
    the details.
    """
    best = np.array([min(v) for v in runner.latencies.values()]) * 1000.0
    every = np.concatenate([v for v in runner.latencies.values()]) * 1000.0
    items = sum(runner.items.values())
    tail = tail_percentile(best.size)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (items / best.sum() * 1000.0, "1/s"),
        "latency_p50_ms": (float(np.percentile(best, 50.0)), "ms"),
        "latency_tail_ms": (float(np.percentile(best, tail)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "requests_per_pass": int(best.size),
        "latency_tail_percentile": tail,
        "passes": runner.passes,
        "error_rate": runner.failed / runner.attempted,
        "item": runner.workload.item,
        "all_executions": {
            "samples": int(every.size),
            "items_per_s": items * runner.passes / every.sum() * 1000.0,
            "latency_p50_ms": float(np.percentile(every, 50.0)),
            "latency_tail_ms": float(np.percentile(every, tail_percentile(every.size))),
        },
    }
    return metrics, details


def layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", ".coverage", ".overhead_frac")):
        return "fraction"
    if name == "serialize.bytes_out":
        return "bytes"
    return "count"


# -- one workload -------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    load_qmol()
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    env = environment() | {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setup = setup_times()
        env["host_probe_before_s"] = host_probe()
        tracer = tracing.Tracer() if trace else None
        runner = Runner(workload, seed, workdir, tracer)
        taken = []
        start = time.perf_counter()
        while True:
            runner.run_pass()
            if tracer is not None:
                taken.append(tracer.take())
            if time.perf_counter() - start >= seconds:
                break
        env["host_probe_after_s"] = host_probe()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        overhead = runner.traced_s / runner.untraced_s - 1.0
        layers = tracing.layer_metrics(taken, overhead)
        metrics = {k: (v, layer_units(k)) for k, v in layers.items()}
        details = {"passes": len(taken), "predictions": predictions(name, layers)}
        tracer.write_spans(OUT / f"{name}-spans.tsv")
    else:
        metrics, details = end_to_end(runner, statistics.median(setup))
        details["setup_runs_s"] = setup

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"env": env, "details": details, "failures": runner.failures[:20]} | result
    (OUT / f"{name}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{name} seed={seed} trace={int(trace)} passes={details['passes']}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:48s} {value:.6g} {unit}")
    if not trace:
        print(f"  {'error_rate':48s} {details['error_rate']:.6g} "
              f"({runner.failed} failed / {runner.attempted} attempted)")
        print(f"  latency: best of {details['passes']} passes for each of "
              f"{details['requests_per_pass']} requests, tail is "
              f"p{details['latency_tail_percentile']:g}; an item is one {details['item']}")
        print("  over all executions: " + json.dumps(details["all_executions"]))
    else:
        for line in details["predictions"]:
            print(f"  {line}")
    for failure in runner.failures[:5]:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


PREDICTED = {
    "eigen_maps": ("linalg", "linalg.hermitian_eigensolve.real"),
    "dynamics_maps": ("serialize", None),
    "crosschecks": ("linalg", "linalg.hermitian_eigensolve.complex"),
}


def predictions(name: str, layers: dict) -> list[str]:
    """Whether the layer the issue predicted to dominate this workload does."""
    from tracing import MODULES, SPAN_NAMES

    module, function = PREDICTED[name]
    total = sum(layers[f"{f}.self_s"] for f in SPAN_NAMES)
    top_module = max(MODULES, key=lambda m: layers[f"{m}.self_s"])
    top_function = max(SPAN_NAMES, key=lambda f: layers[f"{f}.self_s"])
    top_share = layers[f"{top_function}.self_s"] / total
    lines = [f"largest self time: module {top_module}, function {top_function} ({top_share:.1%})"]
    if function is None:
        verdict = "confirmed" if top_module == module else "contradicted"
        share = layers[f"{module}.self_s"] / total
        lines.append(f"prediction '{module} dominates': {verdict} ({share:.1%} of traced self time)")
    else:
        verdict = "confirmed" if top_function == function else "contradicted"
        share = layers[f"{function}.self_s"] / total
        lines.append(f"prediction '{function} dominates': {verdict} ({share:.1%} of traced self time)")
    return lines


# -- all workloads ------------------------------------------------------------------


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh interpreter, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
