"""Span tracing of qmol's public functions, installed from outside the package.

`Tracer.install()` replaces every attribute of every qmol module that is
bound to one of the wrapped function objects, so calls made inside qmol
(for example `sweep` calling `linalg.hermitian_eigensolve`) go through the
wrapper too; `uninstall()` puts the originals back.  No file of qmol is
edited.

A span is recorded only while a request is open (`begin_request` ..
`end_request`); outside a request the wrappers call straight through, so
the benchmark's own output checks never show up in the layer figures.
Each span holds its name, start, end, parent span and request id.  Spans
stay in memory until `write_spans` is called at exit.

Self time is a span's duration minus the time covered by its direct
children, accumulated as the spans close.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

import numpy as np

MODULES = (
    "hamiltonian",
    "linalg",
    "entanglement",
    "spectrum",
    "dynamics",
    "sweep",
    "serialize",
    "cli",
)

WRAPPED = (
    "hamiltonian.build_positional",
    "linalg.hermitian_eigensolve",
    "entanglement.concurrence_pure",
    "entanglement.concurrence",
    "spectrum.eigensystem",
    "spectrum.resonant_solution",
    "dynamics.trajectory",
    "dynamics.propagate",
    "dynamics.propagate_rk4",
    "sweep.eigen_concurrence_map",
    "sweep.dynamics_tunneling_map",
    "sweep.dynamics_detuning_map",
    "serialize.sweep_csv_bytes",
    "serialize.trajectory_csv_bytes",
    "serialize.table_csv_bytes",
    "serialize.pgm_bytes",
    "cli.build_config",
    "cli.render_sweep",
    "cli.render_dynamics",
    "cli.main",
)

# hermitian_eigensolve is reported as two layers: the real-symmetric
# Hamiltonian path and the complex path (density matrices).
SPLIT = "linalg.hermitian_eigensolve"
SPAN_NAMES = tuple(
    part
    for name in WRAPPED
    for part in ((f"{SPLIT}.real", f"{SPLIT}.complex") if name == SPLIT else (name,))
)
REQUEST = "request"
COUNTS = ("sweep.cells", "dynamics.time_points", "serialize.bytes_out")


def _module_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _eigensolve_name(args, kwargs) -> str:
    m = args[0] if args else kwargs["m"]
    m = np.asarray(m)
    if m.dtype.kind == "c" and m.imag.any():
        return f"{SPLIT}.complex"
    return f"{SPLIT}.real"


class Tracer:
    """Collects spans, per-function time and exact counts for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._reset()
        self._request_id = -1
        self._next_id = 0
        # Open frames: [span id, name, start, time covered by children].
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []
        self._last_error: BaseException | None = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name in MODULES:
            importlib.import_module(f"qmol.{name}")
        modules = [m for n, m in sys.modules.items() if n == "qmol" or n.startswith("qmol.")]
        for qualified in WRAPPED:
            module_name, func_name = qualified.split(".")
            original = getattr(sys.modules[f"qmol.{module_name}"], func_name)
            wrapper = self._wrap(qualified, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- requests -----------------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        self._request_id = request_id
        self._stack.append([self._new_id(), REQUEST, perf_counter(), 0.0])

    def end_request(self) -> float:
        """Close the request span and return its duration in seconds."""
        sid, _, start, _ = self._stack.pop()
        end = perf_counter()
        self.spans.append((sid, -1, self._request_id, REQUEST, start, end))
        self._request_id = -1
        self.request_s += end - start
        return end - start

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, qualified: str, func):
        tracer = self
        module = _module_of(qualified)
        stack = self._stack
        count = _COUNTERS.get(qualified)

        def wrapper(*args, **kwargs):
            if tracer._request_id < 0:
                return func(*args, **kwargs)
            name = _eigensolve_name(args, kwargs) if qualified == SPLIT else qualified
            parent = stack[-1]
            frame = [tracer._new_id(), name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                if exc is not tracer._last_error:
                    tracer.errors[module] += 1
                    tracer._last_error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                parent[3] += duration
                stat = tracer.stats[name]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[3]
                tracer.spans.append(
                    (frame[0], parent[0], tracer._request_id, name, frame[2], end)
                )
            if count is not None:
                count(tracer, parent[1], result)
            return result

        return functools.wraps(func)(wrapper)

    # -- reporting ----------------------------------------------------------

    def _reset(self) -> None:
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}  # calls, busy, self
        self.errors = dict.fromkeys(MODULES, 0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.request_s = 0.0

    def take(self) -> dict:
        """Figures gathered since the last take (one traced pass); then reset.

        Spans are kept across takes.
        """
        taken = {
            "stats": self.stats,
            "errors": self.errors,
            "counts": self.counts,
            "request_s": self.request_s,
        }
        self._reset()
        return taken

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write("span\tparent\trequest\tname\tstart_s\tend_s\n")
            for sid, parent, rid, name, start, end in self.spans:
                handle.write(f"{sid}\t{parent}\t{rid}\t{name}\t{start!r}\t{end!r}\n")


def _count_cells(tracer: Tracer, parent: str, grid) -> None:
    tracer.counts["sweep.cells"] += int(grid.values.size)


def _count_points(tracer: Tracer, parent: str, result) -> None:
    times = getattr(result, "times", None)
    tracer.counts["dynamics.time_points"] += 1 if times is None else int(times.shape[0])


def _count_bytes(tracer: Tracer, parent: str, data: bytes) -> None:
    # trajectory_csv_bytes returns what its inner table_csv_bytes built:
    # count bytes once, at the outermost serialize call.
    if _module_of(parent) != "serialize":
        tracer.counts["serialize.bytes_out"] += len(data)


def _count_exit(tracer: Tracer, parent: str, code: int) -> None:
    # main turns exceptions into exit codes, so a failure shows only here.
    if code != 0:
        tracer.errors["cli"] += 1


_COUNTERS = {
    "cli.main": _count_exit,
    "sweep.eigen_concurrence_map": _count_cells,
    "sweep.dynamics_tunneling_map": _count_cells,
    "sweep.dynamics_detuning_map": _count_cells,
    "dynamics.trajectory": _count_points,
    "dynamics.propagate": _count_points,
    "dynamics.propagate_rk4": _count_points,
    "serialize.sweep_csv_bytes": _count_bytes,
    "serialize.trajectory_csv_bytes": _count_bytes,
    "serialize.table_csv_bytes": _count_bytes,
    "serialize.pgm_bytes": _count_bytes,
}


def layer_metrics(traced: list[dict], overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics, per pass, from the snapshots of the traced passes.

    Counts are taken from the first pass (every pass of a seed runs the same
    requests, so they repeat exactly); times are the mean over passes.
    """
    passes = len(traced)
    out: dict[str, float] = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    request_s = sum(s["request_s"] for s in traced) / passes
    traced_self = 0.0
    for name in SPAN_NAMES:
        calls = traced[0]["stats"][name][0]
        busy = sum(s["stats"][name][1] for s in traced) / passes
        self_s = sum(s["stats"][name][2] for s in traced) / passes
        out[f"{name}.calls"] = calls
        out[f"{name}.busy_s"] = busy
        out[f"{name}.self_s"] = self_s
        module_self[_module_of(name)] += self_s
        traced_self += self_s
    for module in MODULES:
        out[f"{module}.self_s"] = module_self[module]
        out[f"{module}.share"] = module_self[module] / request_s
        out[f"{module}.errors"] = sum(s["errors"][module] for s in traced)
    out.update(traced[0]["counts"])
    out["trace.overhead_frac"] = overhead_frac
    out["trace.coverage"] = traced_self / request_s
    return out

