"""The three benchmark workloads: seeded request passes, execution and checks.

A pass is a fixed list of requests built from the seed.  Its composition
(how many requests of each kind and size) is the same for every seed; the
seed draws the physical parameters, state indices, ranges and initial
states, with continuous values stratified over the pass so that no seed is
much cheaper than another.  The benchmark repeats whole passes, so every
run sees the same mix.

Each request is executed through qmol's public entry points only
(`qmol.cli.main(argv)`, or the library API for `crosschecks`) and then
checked against an independent oracle.  A request fails if it raises,
exits nonzero, or fails a check.

CSV bodies carry six decimals, so an oracle "within 1e-9" is checked at
that resolution: the printed value must lie within 0.5e-6 + 1e-9 of the
oracle (rounding plus the tolerance).
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import qmol
import qmol.cli
import qmol.serialize

HBAR = qmol.HBAR_UEV_NS
J = 25.0  # the CLI's default coupling, used by every CLI request
CSV_TOL = 0.5e-6 + 1e-9
LABELS = qmol.states.POSITIONAL_LABELS + qmol.states.BELL_LABELS


@dataclass(frozen=True)
class Request:
    kind: str
    items: int
    argv: tuple[str, ...] = ()
    spec: dict = field(default_factory=dict)
    regenerate: bool = False


@dataclass
class Output:
    code: int = 0
    csv: bytes = b""
    pgm: bytes = b""
    values: tuple = ()


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n values in [lo, hi], one from each of n equal strata, in random order."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return lo + (hi - lo) * u


def _num(x: float) -> str:
    return repr(round(float(x), 6))


# -- independent oracles -------------------------------------------------------


def hamiltonian(e1, e2, d1, d2, j=J) -> np.ndarray:
    """Positional-basis Hamiltonian written out from the model (LL, LR, RL, RR)."""
    return np.array(
        [
            [(e1 + e2) / 2 + j / 4, d2 / 2, d1 / 2, 0.0],
            [d2 / 2, (e1 - e2) / 2 - j / 4, 0.0, d1 / 2],
            [d1 / 2, 0.0, -(e1 - e2) / 2 - j / 4, d2 / 2],
            [0.0, d1 / 2, d2 / 2, -(e1 + e2) / 2 + j / 4],
        ]
    )


def pure_concurrence(amps: np.ndarray) -> np.ndarray:
    """2|a_LL a_RR - a_LR a_RL| along the last axis."""
    return 2.0 * np.abs(amps[..., 0] * amps[..., 3] - amps[..., 1] * amps[..., 2])


def evolve(h: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Amplitudes at each time by np.linalg.eigh; rows follow `times`."""
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * np.outer(times, w) / HBAR)
    return (phases * (v.conj().T @ psi0)) @ v.T


def wootters(rho: np.ndarray) -> float:
    """Concurrence from the eigenvalues of the non-Hermitian rho @ rho_tilde."""
    flip = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
    r = rho @ (flip @ rho.conj() @ flip)
    lam = np.sort(np.sqrt(np.abs(np.linalg.eigvals(r))))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


# -- CSV reading ----------------------------------------------------------------


def _body(csv: bytes) -> list[str]:
    return [line for line in csv.decode("ascii").splitlines() if not line.startswith("#")]


def _sweep_rows(lines: list[str], rows) -> np.ndarray:
    """Parsed value rows (without the leading y column) of a sweep CSV body."""
    return np.array([[float(x) for x in lines[1 + r].split(",")[1:]] for r in rows])


def _all_values(lines: list[str]) -> np.ndarray:
    return np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)


# -- workloads ------------------------------------------------------------------


class Workload:
    name = ""
    item = ""

    def requests(self, seed: int) -> list[Request]:
        raise NotImplementedError

    def execute(self, request: Request, workdir: Path) -> Output:
        raise NotImplementedError

    def collect(self, request: Request, output: Output, workdir: Path) -> None:
        """Read what the request wrote to disk (outside the timed region)."""

    def check(self, request: Request, output: Output, rng: np.random.Generator) -> list[str]:
        raise NotImplementedError

    @staticmethod
    def digest(output: Output) -> str:
        h = hashlib.sha256()
        h.update(str(output.code).encode())
        h.update(output.csv)
        h.update(output.pgm)
        h.update(repr(output.values).encode())
        return h.hexdigest()


class CliWorkload(Workload):
    """Requests are `qmol` argv lists; output files go to the work directory."""

    def execute(self, request: Request, workdir: Path) -> Output:
        csv_path = workdir / "out.csv"
        pgm_path = workdir / "out.pgm"
        argv = list(request.argv) + ["--out", str(csv_path)]
        if request.kind == "eigen":
            argv += ["--pgm", str(pgm_path)]
        code = qmol.cli.main(argv)
        return Output(code=code)

    def collect(self, request: Request, output: Output, workdir: Path) -> None:
        if output.code == 0:
            output.csv = (workdir / "out.csv").read_bytes()
            if request.kind == "eigen":
                output.pgm = (workdir / "out.pgm").read_bytes()


class EigenMaps(CliWorkload):
    """`qmol sweep eigen` over 21^2 and 51^2 grids."""

    name = "eigen_maps"
    item = "map cell"
    # (grid size, tunneling kinds in order); the counts fix the pass mix.
    # Many small maps give the latency percentiles enough samples.  Larger
    # grids are left out: a 101^2 map takes 1-3 s and a 201^2 one 5-10 s, so
    # few passes fit in a run and best-of-passes figures stay unsteady.
    GROUPS = (
        (51, ("zero", "equal", "unequal", "equal")),
        (21, ("zero",) * 12 + ("equal",) * 12 + ("unequal",) * 12),
    )
    SAMPLED_CELLS = 8

    def requests(self, seed: int) -> list[Request]:
        rng = np.random.default_rng([seed, 1])
        out = []
        for size, kinds in self.GROUPS:
            n = len(kinds)
            ratios = _strata(rng, n, 0.02, 0.6)
            others = _strata(rng, n, 0.02, 0.6)
            spans = _strata(rng, n, 0.5, 1.5)
            offset = int(rng.integers(4))
            for i, kind in enumerate(kinds):
                state = (offset + i) % 4
                argv = ["sweep", "eigen", "--state", str(state)]
                if kind == "equal":
                    ratio = round(float(ratios[i]), 6)
                    argv += ["--ratio", _num(ratio)]
                    d1 = d2 = ratio * J  # the CLI computes ratio * j the same way
                elif kind == "unequal":
                    d1, d2 = round(ratios[i] * J, 6), round(others[i] * J, 6)
                    argv += ["--d1", _num(d1), "--d2", _num(d2)]
                else:
                    d1 = d2 = 0.0
                half = round(float(spans[i]) * J, 6)
                argv.append(f"--grid=-{_num(half)}:{_num(half)}:{size}")
                spec = {"size": size, "half": half, "d1": d1, "d2": d2, "state": state}
                out.append(Request("eigen", size * size, tuple(argv), spec))
        order = rng.permutation(len(out))
        out = [out[i] for i in order]
        pick = int(rng.integers(len(out)))
        out[pick] = replace(out[pick], regenerate=True)
        return out

    def check(self, request: Request, output: Output, rng: np.random.Generator) -> list[str]:
        if output.code != 0:
            return [f"exit code {output.code}"]
        spec = request.spec
        n = spec["size"]
        lines = _body(output.csv)
        v = _sweep_rows(lines, range(n))
        errors = []
        if v.shape != (n, n):
            return [f"grid shape {v.shape}, expected {(n, n)}"]
        if v.min() < 0.0 or v.max() > 1.0:
            errors.append("value outside [0, 1]")
        # Mirror cells differ by ~1e-14 before rounding, so compare to the
        # last printed digit.
        if np.abs(v - v[::-1, ::-1]).max() > 1.000001e-6:
            errors.append("inversion symmetry broken")
        if not output.pgm.startswith(f"P5\n{n} {n}\n255\n".encode()) or len(
            output.pgm
        ) != len(f"P5\n{n} {n}\n255\n") + n * n:
            errors.append("malformed PGM")
        axis = np.linspace(-spec["half"], spec["half"], n)
        k = spec["state"]
        for _ in range(self.SAMPLED_CELLS):
            iy, ix = (int(i) for i in rng.integers(n, size=2))
            h = hamiltonian(axis[ix], axis[iy], spec["d1"], spec["d2"])
            w, vec = np.linalg.eigh(h)
            gaps = np.diff(w)
            scale = max(1.0, float(np.abs(w).max()))
            near = [gaps[i] for i in (k - 1, k) if 0 <= i < 3]
            if min(near) < 1e-6 * scale:
                continue  # degenerate: the eigenvector is basis-ambiguous
            expect = float(pure_concurrence(vec[:, k]))
            if abs(v[iy, ix] - expect) > CSV_TOL:
                errors.append(f"cell ({iy}, {ix}) = {v[iy, ix]} vs eigh {expect}")
        if request.regenerate:
            meta = qmol.serialize.parse_metadata(output.csv.decode("ascii"))
            config = qmol.cli.config_from_metadata(meta)
            csv, pgm = qmol.cli.render_sweep(config)
            if csv != output.csv or pgm != output.pgm:
                errors.append("rerun from the CSV header is not byte-identical")
        return errors


class DynamicsMaps(CliWorkload):
    """Dynamic sweeps and trajectories with thousands of time steps."""

    name = "dynamics_maps"
    item = "state-time point"
    # (command, rows, steps, count); the counts fix the pass mix.
    GROUPS = (
        ("tunneling-dynamics", 51, 2001, 5),
        ("detuning-dynamics", 26, 2001, 10),
        ("dynamics", 1, 2001, 15),
        ("dynamics", 1, 5001, 15),
        ("dynamics", 1, 20001, 5),
    )
    SAMPLED_ROWS = 3

    def requests(self, seed: int) -> list[Request]:
        rng = np.random.default_rng([seed, 2])
        out = []
        for command, rows, steps, count in self.GROUPS:
            tmaxes = _strata(rng, count, 1.0, 3.0)
            a = _strata(rng, count, 0.05, 1.0)
            b = _strata(rng, count, 0.05, 1.0)
            inits = rng.choice(LABELS, size=count)
            for i in range(count):
                tmax = round(float(tmaxes[i]), 6)
                init = str(inits[i])
                timing = ["--tmax", _num(tmax), "--steps", str(steps)]
                spec = {"tmax": tmax, "steps": steps, "rows": rows}
                if command == "tunneling-dynamics":
                    lo, hi = round(0.2 * a[i], 6), round(0.6 + 0.4 * b[i], 6)
                    argv = ["sweep", command, "--grid", f"{_num(lo)}:{_num(hi)}:{rows}"]
                    spec |= {"lo": lo, "hi": hi, "init": init}
                elif command == "detuning-dynamics":
                    sign = 1 if i % 2 == 0 else -1
                    ratio, half = round(0.6 * a[i], 6), round((0.5 + b[i]) * J, 6)
                    argv = [
                        "sweep", command, "--ratio", _num(ratio), f"--sign={sign:+d}",
                        f"--grid=-{_num(half)}:{_num(half)}:{rows}",
                    ]
                    spec |= {"ratio": ratio, "half": half, "sign": sign, "init": init}
                else:
                    d1, d2 = round(a[i] * J, 6), round(b[i] * J, 6)
                    # Half of the trajectories start from |RL> at full
                    # resonance, where the closed form applies.
                    resonant = i % 2 == 0
                    if resonant:
                        e1 = e2 = 0.0
                        init = "RL"
                    else:
                        e1, e2 = (round(float(x), 6) for x in rng.uniform(-J, J, 2))
                    argv = [
                        "dynamics", "--d1", _num(d1), "--d2", _num(d2),
                        f"--e1={_num(e1)}", f"--e2={_num(e2)}",
                    ]
                    spec |= {"d1": d1, "d2": d2, "e1": e1, "e2": e2, "init": init}
                argv += timing + ["--init", init]
                out.append(Request(command, rows * steps, tuple(argv), spec))
        order = rng.permutation(len(out))
        return [out[i] for i in order]

    def check(self, request: Request, output: Output, rng: np.random.Generator) -> list[str]:
        if output.code != 0:
            return [f"exit code {output.code}"]
        spec = request.spec
        times = np.linspace(0.0, spec["tmax"], spec["steps"])
        psi0 = qmol.basis_state(spec["init"]).amplitudes
        lines = _body(output.csv)
        errors = []
        if request.kind == "dynamics":
            table = _all_values(lines)
            if table.shape != (spec["steps"], 6):
                return [f"table shape {table.shape}"]
            h = hamiltonian(spec["e1"], spec["e2"], spec["d1"], spec["d2"])
            rows = np.sort(rng.choice(spec["steps"], size=64, replace=False))
            amps = evolve(h, psi0, times[rows])
            expect = np.column_stack([np.abs(amps) ** 2, pure_concurrence(amps)])
            if np.abs(table[rows, 1:] - expect).max() > CSV_TOL:
                errors.append("trajectory differs from the eigh evolution")
            if spec["e1"] == 0.0 and spec["e2"] == 0.0 and spec["init"] == "RL":
                p = qmol.SystemParams(delta1=spec["d1"], delta2=spec["d2"], j=J)
                closed = np.column_stack(qmol.analytic_populations(p, times))
                if np.abs(table[:, 1:5] - closed).max() > CSV_TOL:
                    errors.append("populations differ from analytic_populations")
            return errors
        n = spec["rows"]
        if len(lines) != n + 1:
            return [f"{len(lines) - 1} rows, expected {n}"]
        picked = sorted(int(r) for r in rng.choice(n, size=self.SAMPLED_ROWS, replace=False))
        got = _sweep_rows(lines, picked)
        if request.kind == "tunneling-dynamics":
            ys = np.linspace(spec["lo"], spec["hi"], n)
        else:
            ys = np.linspace(-spec["half"], spec["half"], n)
        for row, values in zip(picked, got):
            y = float(ys[row])
            if request.kind == "tunneling-dynamics":
                h = hamiltonian(0.0, 0.0, y * J, y * J)
            else:
                d = spec["ratio"] * J
                h = hamiltonian(y, spec["sign"] * y, d, d)
            expect = pure_concurrence(evolve(h, psi0, times))
            if values.shape != expect.shape or np.abs(values - expect).max() > CSV_TOL:
                errors.append(f"row {row} differs from the eigh evolution")
        return errors


class CrossChecks(Workload):
    """Library bundles: Wootters concurrence, spectral vs RK4, closed form.

    A bundle holds the three kinds of check in the proportions of qmol's
    own `verify` battery (500 Wootters, 10 RK4 and 300 closed-form checks):
    50 density matrices, one propagation pair and 30 resonant systems.
    """

    name = "crosschecks"
    item = "checked matrix or propagation"
    BUNDLES = 50  # bundles per pass; propagation times are stratified over them
    PER_RANK = 10  # density matrices of each rank 1-4, and Werner states
    RESONANT = 30
    ITEMS = 5 * PER_RANK + 1 + RESONANT

    def requests(self, seed: int) -> list[Request]:
        rng = np.random.default_rng([seed, 3])
        times = _strata(rng, self.BUNDLES, 0.1, 0.5)
        singlet = qmol.basis_state("PsiMinus").amplitudes
        out = []
        for b in range(self.BUNDLES):
            rhos = [_random_density(rng, rank) for rank in (1, 2, 3, 4) for _ in range(self.PER_RANK)]
            werner_p = _strata(rng, self.PER_RANK, 0.0, 1.0)
            werners = [
                p * np.outer(singlet, singlet.conj()) + (1.0 - p) * np.eye(4) / 4.0
                for p in werner_p
            ]
            j = float(rng.uniform(5.0, 50.0))
            e1, e2 = rng.uniform(-j, j, 2)
            d1, d2 = rng.uniform(-2.0 * j, 2.0 * j, 2)
            amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            # RK4's default 1e-4 ns step misses 1e-8 when |E| nears 100 ueV;
            # keep omega * step <= 0.008 so its truncation error stays ~1e-9.
            top = float(np.linalg.norm(hamiltonian(e1, e2, d1, d2, j), 2))
            step = min(1e-4, 0.008 * HBAR / top)
            resonant = []
            for _ in range(self.RESONANT):
                rj = float(rng.uniform(5.0, 50.0))
                r1, r2 = rng.uniform(-2.0 * rj, 2.0 * rj, 2)
                resonant.append(qmol.SystemParams(delta1=r1, delta2=r2, j=rj))
            spec = {
                "rhos": rhos,
                "werner_p": werner_p,
                "werners": werners,
                "propagation": (
                    qmol.SystemParams(eps1=e1, eps2=e2, delta1=d1, delta2=d2, j=j),
                    qmol.StateVector(amps / np.linalg.norm(amps)),
                    float(times[b]),
                    step,
                ),
                "resonant": resonant,
            }
            out.append(Request("bundle", self.ITEMS, spec=spec))
        return out

    def execute(self, request: Request, workdir: Path) -> Output:
        spec = request.spec
        conc = tuple(qmol.concurrence(rho).value for rho in spec["rhos"] + spec["werners"])
        params, psi, t, step = spec["propagation"]
        spectral = qmol.propagate(params, psi, t).amplitudes
        rk4 = qmol.propagate_rk4(params, psi, t, step).amplitudes
        pairs = tuple((qmol.eigensystem(p), qmol.resonant_solution(p)) for p in spec["resonant"])
        return Output(values=(conc, spectral, rk4, pairs))

    @staticmethod
    def digest(output: Output) -> str:
        conc, spectral, rk4, pairs = output.values
        h = hashlib.sha256(repr(conc).encode())
        arrays = [spectral, rk4]
        for system, closed in pairs:
            arrays += [system.energies, system.vectors, closed.energies]
            arrays += [s.amplitudes for s in closed.states]
        for arr in arrays:
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def check(self, request: Request, output: Output, rng: np.random.Generator) -> list[str]:
        spec = request.spec
        conc, spectral, rk4, pairs = output.values
        errors = []
        for i, (rho, value) in enumerate(zip(spec["rhos"], conc)):
            rank = 1 + i // self.PER_RANK
            if rank == 1:
                pure = qmol.StateVector(_top_vector(rho))
                if abs(value - qmol.concurrence_pure(pure)) > 1e-10:
                    errors.append("pure state: Wootters differs from concurrence_pure")
            if abs(value - wootters(rho)) > 1e-6:
                errors.append(f"rank {rank}: Wootters differs from the eigvals oracle")
        for p, value in zip(spec["werner_p"], conc[len(spec["rhos"]):]):
            if abs(value - max(0.0, (3.0 * p - 1.0) / 2.0)) > 1e-10:
                errors.append(f"Werner p={p}: differs from max(0, (3p-1)/2)")
        if np.abs(spectral - rk4).max() > 1e-8:
            errors.append("RK4 differs from spectral propagation beyond 1e-8")
        for params, (system, closed) in zip(spec["resonant"], pairs):
            exact = np.sort(closed.energies)
            scale = max(1.0, params.j)
            if np.abs(system.energies - exact).max() > 1e-10 * scale:
                errors.append(f"{params}: energies differ from resonant_solution")
            order = np.argsort(closed.energies, kind="stable")
            gaps = np.diff(exact)
            for k in range(4):
                near = [gaps[i] for i in (k - 1, k) if 0 <= i < 3]
                if min(near) < 1e-6 * scale:
                    continue  # degenerate: the eigenvector is basis-ambiguous
                overlap = abs(system.states[k].overlap(closed.states[order[k]]))
                if abs(overlap - 1.0) > 1e-9:
                    errors.append(f"{params}: eigenvector {k} differs from resonant_solution")
        return errors


def _random_density(rng: np.random.Generator, rank: int) -> np.ndarray:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(g)
    weights = rng.random(rank) + 0.05
    weights /= weights.sum()
    vecs = q[:, :rank]
    rho = (vecs * weights) @ vecs.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def _top_vector(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(rho)
    return v[:, -1]


WORKLOADS = {w.name: w for w in (EigenMaps(), DynamicsMaps(), CrossChecks())}
