"""Run orchestration: ground-state preparation, quench dynamics, oracle
benchmarking, sampler diagnostics, and reproducible persistence.

Both expectation engines answer ``draw(state, g, J, out) -> (Draw, QGT
estimate)``.  The HMC engine samples chains, which weigh alike, and
estimates the QGT from them.  The quadrature engine makes one pass over its
fixed grid that gives ln psi, O and E_L together: the Born weights come from
that ln psi, are checked, and weigh the estimate, and the draw keeps the ln
psi for the fidelity.  Every observable is computed from a draw by one code
path.  A quench draws once per parameter vector: the last right-hand-side
evaluation keeps its draw and estimates, and the last stage of an accepted
step sits at the accepted point, so the row there reads them.  The draw at
alpha_0 serves the t = 0 row, the fidelity reference and the first stage.

Sampling RNG streams are keyed by (seed, mode code, evaluation counter,
chain index) through ``numpy``'s seed-sequence spawning, so a rerun with the
same configuration replays the exact draw sequence.  All floating-point
output is serialized with an explicit repr-precision format, which makes
CSVs byte-comparable.
"""

from __future__ import annotations

import json
import sys
import zipfile
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import exact, observables, quadrature
from .ansatz import make_ansatz, random_alpha
from .config import RunConfig, config_echo
from .hmc import init_chain, sample, warmup
from .integrator import AdaptiveStepper
from .tdvp import estimate_qgt, residual_r2, tdvp_rhs

CHECKPOINT_FORMAT_VERSION = 1
# smallest Kish effective sample size 1 / sum(w^2) of a quadrature draw
MIN_KISH_ESS = 2.0

# mode codes folded into per-run RNG keys
_MODE_GROUND_STATE = 0
_MODE_QUENCH = 1
_MODE_SAMPLER_CHECK = 2


class RunnerError(RuntimeError):
    """Numerical failure with a typed reason for run metadata."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


# ---------------------------------------------------------------------------
# persistence


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return "nan"
    return format(float(value), ".17g")


def write_csv(path, columns: list[str], rows: list[dict]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in columns))
    Path(path).write_text("\n".join(lines) + "\n")


def write_metadata(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def save_checkpoint(path, state, t: float, extra: dict | None = None) -> None:
    """Parameter vector plus an embedded layout descriptor and version tag."""
    names = np.array([name for name, _ in state.layout])
    shapes = np.array(
        [",".join(str(s) for s in shape) for _, shape in state.layout]
    )
    np.savez(
        path,
        format_version=np.int64(CHECKPOINT_FORMAT_VERSION),
        kind=np.str_(state.kind),
        alpha=state.alpha,
        layout_names=names,
        layout_shapes=shapes,
        t=np.float64(t),
        extra=np.str_(json.dumps(extra or {})),
    )


CHECKPOINT_FIELDS = ("format_version", "kind", "alpha", "layout_names",
                     "layout_shapes", "t", "extra")


def load_checkpoint(path, state):
    """Verify the descriptor against ``state`` and return (alpha, t, extra).

    A missing file, a file that is no npz archive and an archive without one
    of the fields raise RunnerError("checkpoint-unreadable") with a message
    that says which.
    """
    def unreadable(why: str) -> RunnerError:
        return RunnerError("checkpoint-unreadable", f"cannot read checkpoint {path}: {why}")

    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):  # a bare .npy array
            raise ValueError("not an archive")
        with data:
            missing = [name for name in CHECKPOINT_FIELDS if name not in data.files]
            if missing:
                raise unreadable(f"missing field {missing[0]!r}")
            version = int(data["format_version"])
            if version != CHECKPOINT_FORMAT_VERSION:
                raise RunnerError(
                    "checkpoint-version",
                    f"checkpoint format {version} != {CHECKPOINT_FORMAT_VERSION}",
                )
            kind = str(data["kind"])
            names = [str(s) for s in data["layout_names"]]
            shapes = [
                tuple(int(tok) for tok in s.split(",") if tok)
                for s in data["layout_shapes"]
            ]
            if kind != state.kind or list(zip(names, shapes)) != [
                (n, tuple(s)) for n, s in state.layout
            ]:
                raise RunnerError(
                    "checkpoint-mismatch",
                    f"checkpoint holds a {kind} layout incompatible with {state.kind}",
                )
            return (
                np.asarray(data["alpha"], dtype=np.complex128),
                float(data["t"]),
                json.loads(str(data["extra"])),
            )
    except FileNotFoundError as exc:
        raise unreadable("no such file") from exc
    except OSError as exc:
        raise unreadable(exc.strerror or str(exc)) from exc
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        # numpy's own message for a text file is about pickles
        raise unreadable("not an npz checkpoint") from exc


# ---------------------------------------------------------------------------
# sampling engines


@dataclass
class Draw:
    """An engine's configurations and their normalized weights (None: alike).

    A quadrature draw also keeps ln psi at its grid points.
    """

    points: np.ndarray
    weights: np.ndarray | None = None
    log_psi: np.ndarray | None = None


class _HmcEngine:
    """Fresh warmed-up chains per evaluation, keyed by an evaluation counter.

    ``warnings`` counts each sampler warning message over all draws; a
    message is printed on stderr the first time it occurs.
    """

    def __init__(self, config: RunConfig, mode_code: int):
        self.config = config
        self.mode_code = mode_code
        self.counter = 0
        self.last_diag = None
        self.warnings: Counter[str] = Counter()

    def sample(self, state, counter: int | None = None) -> np.ndarray:
        """(n_chains, n_samples, N) angles from |psi|^2 at state.alpha."""
        cfg = self.config
        if counter is None:
            counter = self.counter
            self.counter += 1
        chains = [
            init_chain(
                state.n_sites,
                cfg.hmc,
                np.random.default_rng([cfg.seed, self.mode_code, counter, c]),
            )
            for c in range(cfg.hmc.n_chains)
        ]
        warmup(chains, cfg.hmc, state)
        flat, diag = sample(chains, cfg.hmc.n_samples, state, cfg.hmc)
        self.last_diag = diag
        for message in diag.warnings:
            if message not in self.warnings:
                print(f"sampler warning: {message}", file=sys.stderr)
            self.warnings[message] += 1
        return flat.reshape(cfg.hmc.n_chains, cfg.hmc.n_samples, state.n_sites)

    def draw(self, state, g: float, J: float, out=None):
        """Fresh chains and the QGT estimate from them (``out``: see
        ``estimate_qgt``)."""
        points = self.sample(state)
        qgt = estimate_qgt(state, points.reshape(-1, state.n_sites), g, J, out=out)
        return Draw(points), qgt


class _QuadratureEngine:
    """Noiseless grid-weighted averages; the deterministic reference engine."""

    def __init__(self, config: RunConfig):
        self.grid = quadrature.grid_points(
            config.lattice.n_sites, config.quadrature_points
        )
        self.last_diag = None
        self.warnings: Counter[str] = Counter()

    def draw(self, state, g: float, J: float, out=None):
        """The grid with its normalized |psi|^2 weights, and the QGT estimate,
        from one pass over the grid: ``estimate_qgt`` hands ln psi on the
        grid to ``weigh`` before it uses any weight.

        Raises RunnerError("draw-degenerate") when the weights sit on fewer
        than ``MIN_KISH_ESS`` points: the averages are then those of a few
        configurations, and X and alpha_dot vanish.
        """
        draw = Draw(self.grid)

        def weigh(log_psi):
            weights = quadrature.weights_from_log_psi(log_psi)
            ess = 1.0 / float(weights @ weights)
            if ess < MIN_KISH_ESS:
                raise RunnerError(
                    "draw-degenerate",
                    f"|psi|^2 sits on {ess:.3g} grid points (Kish ESS); "
                    f"at least {MIN_KISH_ESS:g} are needed",
                )
            draw.weights, draw.log_psi = weights, log_psi
            return weights

        return draw, estimate_qgt(state, self.grid, g, J, weights=weigh, out=out)


def _engine(config: RunConfig, mode_code: int):
    if config.sampling == "quadrature":
        return _QuadratureEngine(config)
    return _HmcEngine(config, mode_code)


def _observables(draw: Draw, config: RunConfig, lattice) -> dict:
    """One trajectory row's observables from an engine draw."""
    samples, weights = draw.points, draw.weights
    e_pot, e_sigma = observables.potential_energy_density(
        samples, lattice, config.physics.j, weights=weights
    )
    mag, mag_x, mag_y, mag_sigma = observables.magnetization(samples, weights=weights)
    row = {
        "e_pot": e_pot,
        "e_pot_sigma": e_sigma,
        "mag": mag,
        "mag_x": mag_x,
        "mag_y": mag_y,
        "mag_sigma": mag_sigma,
        "var_mean": observables.circular_variance_mean(samples, weights=weights),
    }
    # an open 1 x L strip is 2D but has no plaquette: vort_1 is left empty
    if lattice.ndim == 2 and lattice.plaquettes(1).shape[0]:
        row["vort_1"], row["vort_sigma"] = observables.vorticity(
            samples, lattice, 1, weights=weights
        )
    return row


# ---------------------------------------------------------------------------
# ground state


@dataclass
class GroundStateResult:
    state: object
    energies: list[float]
    converged: bool
    iterations: int


def run_ground_state(config: RunConfig, alpha0: np.ndarray | None = None,
                     out_dir: Path | None = None) -> GroundStateResult:
    """Imaginary-time descent at g_initial until the energy trace flattens."""
    lattice = config.lattice
    state = make_ansatz(config.ansatz_kind, lattice, **config.ansatz_hyper)
    if alpha0 is None:
        alpha0 = random_alpha(state, np.random.default_rng([config.seed, 97]))
    state = state.with_alpha(alpha0)

    gs = config.ground_state
    g = config.physics.g_initial
    engine = _engine(config, _MODE_GROUND_STATE)
    energies: list[float] = []
    converged = False
    n = lattice.n_sites
    scale = gs.tolerance * config.physics.j * n
    # X, the largest array of an iteration, is refilled in place: a new X
    # per iteration after freeing the last one made the allocator return
    # the heap top to the system and fault it back in, every iteration
    x = None
    for iteration in range(gs.max_iters):
        _, qgt = engine.draw(state, g, config.physics.j, x)
        alpha_dot = tdvp_rhs(qgt, config.regularization, mode="imag")[0]
        energies.append(float(np.real(qgt.e_mean)))
        x = qgt.x
        state = state.with_alpha(state.alpha + gs.tau * alpha_dot)
        if len(energies) > gs.window:
            recent = energies[-(gs.window + 1):]
            if max(recent) - min(recent) < scale:
                converged = True
                break

    result = GroundStateResult(state, energies, converged, len(energies))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(
            out_dir / "ground_state.npz", state, 0.0,
            extra={"converged": converged, "g": g},
        )
        write_csv(
            out_dir / "ground_state.csv",
            ["iteration", "energy", "energy_per_site"],
            [
                {"iteration": i, "energy": e, "energy_per_site": e / n}
                for i, e in enumerate(energies)
            ],
        )
        write_metadata(out_dir / "metadata.json", {
            "mode": "ground-state",
            "config": config_echo(config),
            "converged": converged,
            "iterations": len(energies),
            "final_energy": energies[-1] if energies else None,
            "sampler_warnings": dict(engine.warnings),
        })
    if not converged:
        raise RunnerError(
            "ground-state-nonconvergence",
            f"energy trace did not flatten within {gs.max_iters} iterations "
            f"(checkpoint persisted)" if out_dir else
            f"energy trace did not flatten within {gs.max_iters} iterations",
        )
    return result


# ---------------------------------------------------------------------------
# quench


TRAJECTORY_COLUMNS = [
    "t", "dt", "energy", "e_pot", "e_pot_sigma", "mag", "mag_x", "mag_y",
    "mag_sigma", "var_mean", "vort_1", "vort_sigma", "fidelity",
    "fidelity_sigma", "rho", "lambda2", "r2", "r2_integral",
    "acceptance", "divergences", "rhat_max",
]


@dataclass
class TrajectoryRecord:
    rows: list[dict] = field(default_factory=list)
    status: str = "ok"
    sampler_warnings: dict[str, int] = field(default_factory=dict)

    @property
    def times(self) -> np.ndarray:
        return np.array([row["t"] for row in self.rows])

    def column(self, name: str) -> np.ndarray:
        return np.array([row[name] for row in self.rows], dtype=np.float64)


def run_quench(config: RunConfig, initial_state, out_dir: Path | None = None,
               g_final: float | None = None) -> TrajectoryRecord:
    """Real-time variational dynamics under g_final from ``initial_state``."""
    lattice = config.lattice
    j = config.physics.j
    g = config.physics.g_final if g_final is None else g_final
    state_0 = initial_state
    engine = _engine(config, _MODE_QUENCH)

    # the last rhs evaluation, which the row at its parameters reads
    last = {}

    def rhs(t, alpha):
        st = initial_state.with_alpha(alpha)
        draw, qgt = engine.draw(st, g, j)
        alpha_dot, pinv = tdvp_rhs(qgt, config.regularization, mode="real")
        r2, _ = residual_r2(qgt, pinv)
        last.update(
            state=st, draw=draw, diag=engine.last_diag, rho=pinv.rho,
            lambda2=pinv.lambda2, r2=r2, energy=float(np.real(qgt.e_mean)),
        )
        return alpha_dot

    alpha = np.array(initial_state.alpha, copy=True)
    stepper = AdaptiveStepper(config.controller, k1=rhs(0.0, alpha))
    draw_0 = last["draw"]
    record = TrajectoryRecord(sampler_warnings=engine.warnings)
    t, dt = 0.0, min(config.dt0, config.controller.dt_max)
    r2_integral = 0.0
    prev_r2 = None
    prev_t = 0.0

    def emit(t_now, dt_now):
        nonlocal r2_integral, prev_r2, prev_t
        draw_t, diag = last["draw"], last["diag"]
        row = _observables(draw_t, config, lattice)
        if draw_t.log_psi is None:
            fres = observables.fidelity(state_0, last["state"], draw_0.points, draw_t.points)
        else:
            # both draws lie on the one grid, so z_t = -z_0
            l0, lt = draw_0.log_psi, draw_t.log_psi
            fres = observables.fidelity_of_log_ratios(
                lt - l0, l0 - lt, weights_0=draw_0.weights, weights_t=draw_t.weights,
            )
        if fres.overlap_lost:
            raise RunnerError(
                "fidelity-overlap-loss",
                f"overlap estimator underflowed at t={t_now:.4f}",
            )
        r2_now = last["r2"]
        if prev_r2 is not None:
            r2_integral += 0.5 * (prev_r2 + r2_now) * (t_now - prev_t)
        prev_r2, prev_t = r2_now, t_now
        row.update({
            "t": t_now,
            "dt": dt_now,
            "energy": last["energy"],
            "fidelity": fres.value,
            "fidelity_sigma": fres.sigma,
            "rho": last["rho"],
            "lambda2": last["lambda2"],
            "r2": r2_now,
            "r2_integral": r2_integral,
            "acceptance": float(np.mean(diag.acceptance)) if diag else None,
            "divergences": int(np.sum(diag.divergences)) if diag else 0,
            "rhat_max": diag.rhat_max if diag else None,
        })
        row.setdefault("vort_1", None)
        row.setdefault("vort_sigma", None)
        record.rows.append(row)

    # row at t = 0 (fidelity is 1 by construction; still estimated); each
    # later row carries the size of the accepted step that produced it
    emit(0.0, 0.0)

    try:
        while t < config.physics.t_max - 1e-12:
            dt = min(dt, config.physics.t_max - t)
            alpha, t, dt = stepper.advance(rhs, alpha, t, dt)
            emit(t, stepper.attempts[-1].dt)
    except Exception as exc:
        record.status = getattr(exc, "reason", type(exc).__name__)
        if out_dir is not None:
            _persist_trajectory(config, record, initial_state, alpha, t, out_dir)
        raise
    if out_dir is not None:
        _persist_trajectory(config, record, initial_state, alpha, t, out_dir)
    return record


def _persist_trajectory(config, record, initial_state, alpha, t, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "trajectory.csv", TRAJECTORY_COLUMNS, record.rows)
    save_checkpoint(
        out_dir / "final_state.npz", initial_state.with_alpha(alpha), t,
        extra={"status": record.status},
    )
    write_metadata(out_dir / "metadata.json", {
        "mode": "quench",
        "config": config_echo(config),
        "status": record.status,
        "steps": len(record.rows) - 1,
        "final_time": t,
        "sampler_warnings": record.sampler_warnings,
    })


# ---------------------------------------------------------------------------
# oracle benchmark


def run_oracle_benchmark(config: RunConfig, initial_state=None,
                         out_dir: Path | None = None):
    """Paired t-VMC / exact-evolution curves from the same initial state.

    Returns (TrajectoryRecord, exact rows, summary dict).  The exact engine
    projects the variational initial state onto the truncated basis, evolves
    it one total-M sector at a time, and is evaluated at the t-VMC output times.
    """
    lattice = config.lattice
    basis = exact.TruncatedBasis(lattice.n_sites, config.m_cut)
    exact.check_dim(exact.largest_sector(basis.n_sites, basis.m_cut))
    if initial_state is None:
        gs = run_ground_state(config)
        initial_state = gs.state
    dense0, alias_mass = exact.vqs_to_dense(initial_state, basis)
    hamiltonian = exact.build_hamiltonian(
        basis, lattice, config.physics.g_final, config.physics.j
    )
    evolver = exact.ExactEvolver(hamiltonian)

    record = run_quench(config, initial_state, out_dir=None)

    exact_rows = []
    for row in record.rows:
        dense_t = evolver.evolve(dense0, row["t"])
        obs = exact.exact_observables(dense_t, basis, lattice, J=config.physics.j)
        exact_rows.append({
            "t": row["t"],
            "e_pot": obs["e_pot"],
            "mag_x": obs["mag_x"],
            "mag_y": obs["mag_y"],
            "var_mean": obs["var_mean"],
            "fidelity": exact.exact_fidelity(dense0, dense_t),
        })

    summary = {
        "alias_mass": alias_mass,
        "max_e_pot_error": max(
            abs(r["e_pot"] - x["e_pot"]) for r, x in zip(record.rows, exact_rows)
        ),
        "max_fidelity_error": max(
            abs(r["fidelity"] - x["fidelity"])
            for r, x in zip(record.rows, exact_rows)
        ),
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(out_dir / "trajectory.csv", TRAJECTORY_COLUMNS, record.rows)
        write_csv(
            out_dir / "exact_reference.csv",
            ["t", "e_pot", "mag_x", "mag_y", "var_mean", "fidelity"],
            exact_rows,
        )
        write_metadata(out_dir / "metadata.json", {
            "mode": "oracle-benchmark",
            "config": config_echo(config),
            "summary": summary,
        })
    return record, exact_rows, summary


# ---------------------------------------------------------------------------
# sampler check


SAMPLER_NS_SWEEP = (250, 500, 1000, 2000, 4000)
SAMPLER_L_SWEEP = (1, 2, 10, 20)


def run_sampler_check(config: RunConfig, state=None, out_dir: Path | None = None):
    """Hyperparameter sweeps on a frozen target state.

    Sweeps samples-per-chain for the magnetization error bar scaling and the
    leapfrog length for the variance-reduction comparison; returns a report
    dict with both tables and the fitted scaling slope.
    """
    if state is None:
        state = make_ansatz(config.ansatz_kind, config.lattice, **config.ansatz_hyper)
        state = state.with_alpha(
            random_alpha(state, np.random.default_rng([config.seed, 97]))
        )

    def draw(hmc_cfg, counter):
        engine = _HmcEngine(replace(config, hmc=hmc_cfg), _MODE_SAMPLER_CHECK)
        samples = engine.sample(state, counter)
        return samples, engine.last_diag

    ns_rows = []
    for idx, n_samples in enumerate(SAMPLER_NS_SWEEP):
        cfg = replace(config.hmc, n_samples=n_samples)
        samples, diag = draw(cfg, idx)
        mag, _, _, sigma = observables.magnetization(samples)
        ns_rows.append({
            "n_samples": n_samples,
            "mag": mag,
            "sigma_mag": sigma,
            "acceptance": float(np.mean(diag.acceptance)),
        })
    log_ns = np.log([row["n_samples"] for row in ns_rows])
    log_sigma = np.log([row["sigma_mag"] for row in ns_rows])
    slope = float(np.polyfit(log_ns, log_sigma, 1)[0])

    l_rows = []
    sigma_draws = {}
    rng = np.random.default_rng([config.seed, _MODE_SAMPLER_CHECK, 999])
    for idx, l0 in enumerate(SAMPLER_L_SWEEP):
        cfg = replace(config.hmc, l0=l0)
        samples, diag = draw(cfg, 100 + idx)
        mag, _, _, sigma = observables.magnetization(samples)
        # bootstrap distribution of the error bar, reused for the L comparison
        per_sample = np.hypot(
            np.sum(np.cos(samples), axis=-1), np.sum(np.sin(samples), axis=-1)
        ) / state.n_sites
        boots = np.empty(observables.DEFAULT_RESAMPLES)
        for b in range(observables.DEFAULT_RESAMPLES):
            pick = rng.integers(0, per_sample.shape[0], size=per_sample.shape[0])
            boots[b] = per_sample[pick].mean(axis=1).std() / np.sqrt(per_sample.shape[0])
        sigma_draws[l0] = boots
        l_rows.append({
            "l0": l0,
            "mag": mag,
            "sigma_mag": sigma,
            "acceptance": float(np.mean(diag.acceptance)),
        })
    diff = sigma_draws[10] ** 2 - sigma_draws[1] ** 2
    variance_reduction_confident = bool(np.quantile(diff, 0.95) <= 0.0)

    report = {
        "ns_sweep": ns_rows,
        "l_sweep": l_rows,
        "sigma_slope": slope,
        "variance_reduction_confident": variance_reduction_confident,
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(out_dir / "ns_sweep.csv",
                  ["n_samples", "mag", "sigma_mag", "acceptance"], ns_rows)
        write_csv(out_dir / "l_sweep.csv",
                  ["l0", "mag", "sigma_mag", "acceptance"], l_rows)
        write_metadata(out_dir / "metadata.json", {
            "mode": "sampler-check",
            "config": config_echo(config),
            "sigma_slope": slope,
            "variance_reduction_confident": variance_reduction_confident,
        })
    return report
