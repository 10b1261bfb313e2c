"""Run orchestration: ground-state preparation, quench dynamics, oracle
benchmarking, sampler diagnostics, and reproducible persistence.

Both expectation engines answer ``draw(state, g, J, out) -> (Draw, QGT
estimate)``, and both estimate the QGT from one pass over the draw's points
that gives ln psi, O and E_L together, in ``_estimate``; the draw keeps
that ln psi.  The HMC engine's chains weigh alike.  The quadrature engine's
points are its fixed grid, whose ``Angles`` it builds once per run, weighed
by Born weights from the pass's ln psi, which it then checks.  Every
observable is computed from a draw by one code path, and an HMC draw
carries its sampler diagnostics.  An HMC draw can also serve a nearby
parameter vector: ``_HmcEngine.reweight`` estimates the QGT there from the
draw's points, weighted by |psi'/psi|^2, without running a chain.

Every run starts from ``start_state`` and ends in ``write_outputs``.  A
quench is one ``Quench``, advanced one accepted step at a time, which
commits alpha with the step's row.  It writes once, also when it fails
after its t = 0 row: the rows so far with the failure's reason as the
status, the last row's alpha and t as the final state, and every RK attempt.
The oracle benchmark's quench writes the same files, and its exact
reference beside them.

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
from collections import Counter, namedtuple
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import exact, observables, quadrature
from .ansatz import Angles, make_ansatz, random_alpha
from .config import RunConfig, config_echo
from .hmc import Chains, HmcConfig, SampleDiagnostics, sample, warmup
from .integrator import AdaptiveStepper
from .tdvp import estimate_qgt, residual_r2, tdvp_rhs

CHECKPOINT_FORMAT_VERSION = 1
# smallest Kish effective sample size 1 / sum(w^2) of a quadrature draw
MIN_KISH_ESS = 2.0
# smallest Kish ESS/n, 1 / (n sum(w^2)), of a quench stage reweighted from
# the HMC draw at the step's accepted point; below it the stage draws afresh
MIN_REWEIGHT_ESS = 0.9

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


def write_outputs(out_dir, mode: str, config: RunConfig, tables, **fields) -> Path:
    """Make ``out_dir``, write each (file name, columns, rows) of ``tables``
    as CSV and ``metadata.json`` with the mode, the config echo and
    ``fields``; return the directory."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, columns, rows in tables:
        write_csv(out_dir / name, columns, rows)
    write_metadata(out_dir / "metadata.json",
                   {"mode": mode, "config": config_echo(config), **fields})
    return out_dir


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


def start_state(config: RunConfig, resume=None):
    """The configured ansatz at the parameters of the ``resume`` checkpoint,
    or else at small random ones seeded by [seed, 97]."""
    state = make_ansatz(config.ansatz_kind, config.lattice, **config.ansatz_hyper)
    if resume is None:
        alpha = random_alpha(state, np.random.default_rng([config.seed, 97]))
    else:
        alpha, _, _ = load_checkpoint(resume, state)
    return state.with_alpha(alpha)


# ---------------------------------------------------------------------------
# sampling engines


@dataclass
class Draw:
    """An engine's configurations, ln psi at them (shaped like the points
    without their site axis), their normalized weights (None: alike) and
    the sampler's diagnostics (None: no sampler)."""

    points: np.ndarray
    log_psi: np.ndarray
    weights: np.ndarray | None = None
    diag: SampleDiagnostics | None = None


def _estimate(state, points, angles, g: float, J: float, shift=None, out=None):
    """The draw of ``points`` (whose ``Angles`` are ``angles``) and the QGT
    estimate at ``state`` from one pass over them (``out``: see
    ``estimate_qgt``).  The points weigh alike if ``shift`` is None, else by
    |psi|^2 / exp(2 Re shift), normalized."""
    draw = Draw(points, None)

    def weigh(log_psi):
        draw.weights = quadrature.weights_from_log_psi(log_psi - shift)
        return draw.weights

    qgt = estimate_qgt(state, angles, g, J, weights=None if shift is None else weigh, out=out)
    draw.log_psi = qgt.log_psi.reshape(points.shape[:-1])
    return draw, qgt


class _HmcEngine:
    """Fresh warmed-up chains per draw, keyed by a counter of draws; a
    reweighted estimate runs no chain and leaves the counter as it is.  The
    only builder of chain batches: one engine serves a whole run.

    ``warnings`` counts each sampler warning message over all draws; a
    message is printed on stderr the first time it occurs.  ``grad_calls``
    sums the chains' batched gradient calls over all draws: one at the start
    angles, then one per leapfrog step of warmup and sampling.
    """

    def __init__(self, config: RunConfig, mode_code: int):
        self.config = config
        self.mode_code = mode_code
        self.counter = 0
        self.warnings: Counter[str] = Counter()
        self.grad_calls = 0

    def sample(self, state, hmc: HmcConfig, counter: int):
        """(n_chains, n_samples, N) angles from |psi|^2 at state.alpha, drawn by
        chains built with ``hmc`` and keyed by ``counter``, and the sampler's
        diagnostics."""
        rngs = [np.random.default_rng([self.config.seed, self.mode_code, counter, c])
                for c in range(hmc.n_chains)]
        chains = Chains(state, state.n_sites, hmc, rngs)
        warmup(chains)
        points, diag = sample(chains)
        self.grad_calls += chains.grad_calls
        for message in diag.warnings:
            if message not in self.warnings:
                print(f"sampler warning: {message}", file=sys.stderr)
            self.warnings[message] += 1
        return points, diag

    def draw(self, state, g: float, J: float, out=None):
        """Fresh chains under the run's ``HmcConfig`` and the QGT estimate
        from them."""
        points, diag = self.sample(state, self.config.hmc, self.counter)
        self.counter += 1
        angles = Angles(points.reshape(-1, state.n_sites), state.lattice)
        draw, qgt = _estimate(state, points, angles, g, J, out=out)
        return replace(draw, diag=diag), qgt

    def reweight(self, state, g: float, J: float, anchor: Draw):
        """The QGT estimate at ``state`` over ``anchor``'s points, and the Kish
        ESS/n of its weights: the anchor's weights (alike when None) times
        |psi_state / psi_anchor|^2, normalized.  No chain runs.
        """
        points = anchor.points.reshape(-1, state.n_sites)
        shift = anchor.log_psi.ravel()
        if anchor.weights is not None:
            with np.errstate(divide="ignore"):  # a weight of 0 stays 0
                shift = shift - 0.5 * np.log(anchor.weights)
        draw, qgt = _estimate(state, points, Angles(points, state.lattice), g, J, shift)
        w = draw.weights
        return qgt, 1.0 / (w.size * float(w @ w))


class _QuadratureEngine:
    """Noiseless grid-weighted averages; the deterministic reference engine.

    The grid and its ``Angles`` (cos, sin and bond-cosine sums) are built
    once per run; every draw's ``_estimate`` reads them.
    """

    def __init__(self, config: RunConfig):
        self.grid = quadrature.grid_points(
            config.lattice.n_sites, config.quadrature_points
        )
        self.angles = Angles(self.grid, config.lattice)
        self.warnings: Counter[str] = Counter()
        self.grad_calls = 0  # no sampler

    def draw(self, state, g: float, J: float, out=None):
        """The grid with its normalized |psi|^2 weights, and the QGT estimate.

        Raises RunnerError("draw-degenerate") when the weights sit on fewer
        than ``MIN_KISH_ESS`` points: the averages are then those of a few
        configurations, and X and alpha_dot vanish.
        """
        draw, qgt = _estimate(state, self.grid, self.angles, g, J, shift=0.0, out=out)
        ess = 1.0 / float(draw.weights @ draw.weights)
        if ess < MIN_KISH_ESS:
            raise RunnerError(
                "draw-degenerate",
                f"|psi|^2 sits on {ess:.3g} grid points (Kish ESS); "
                f"at least {MIN_KISH_ESS:g} are needed",
            )
        return draw, qgt


def _engine(config: RunConfig, mode_code: int):
    if config.sampling == "quadrature":
        return _QuadratureEngine(config)
    return _HmcEngine(config, mode_code)


def _observables(draw: Draw, config: RunConfig) -> dict:
    """One trajectory row's observables from an engine draw."""
    samples, weights, lattice = draw.points, draw.weights, config.lattice
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
        "vort_1": None, "vort_sigma": None,
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


def run_ground_state(config: RunConfig, state=None,
                     out_dir: Path | None = None) -> GroundStateResult:
    """Imaginary-time descent at g_initial until the energy trace flattens,
    from ``state`` (default: ``start_state(config)``)."""
    lattice = config.lattice
    if state is None:
        state = start_state(config)

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
        rows = [{"iteration": i, "energy": e, "energy_per_site": e / n}
                for i, e in enumerate(energies)]
        out_dir = write_outputs(
            out_dir, "ground-state", config,
            [("ground_state.csv", ["iteration", "energy", "energy_per_site"], rows)],
            converged=converged, iterations=len(energies),
            final_energy=energies[-1] if energies else None,
            sampler_warnings=dict(engine.warnings), hmc_grad_calls=engine.grad_calls,
        )
        save_checkpoint(out_dir / "ground_state.npz", state, 0.0,
                        extra={"converged": converged, "g": g})
    if not converged:
        raise RunnerError(
            "ground-state-nonconvergence",
            f"energy trace did not flatten within {gs.max_iters} iterations"
            + (" (checkpoint persisted)" if out_dir else ""),
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
STEP_COLUMNS = ["t", "dt", "accepted", "err_norm"]

# a right-hand side's state and draw, and the solve's rho, lambda^2, r^2 and energy
Evaluation = namedtuple("Evaluation", "state draw rho lambda2 r2 energy")


def _log_psi_at(state, draw: Draw, other: Draw) -> np.ndarray:
    """ln psi of ``state``, the state that drew ``other``, at ``draw``'s
    points: read from ``other`` when both draws lie on the same points."""
    if draw.points is other.points:
        return other.log_psi
    points = draw.points
    return state.log_psi(points.reshape(-1, points.shape[-1])).reshape(points.shape[:-1])


@dataclass
class Quench:
    """A quench under ``g`` from ``state_0``: the state it carries from one
    accepted step to the next, and the record that ``run_quench`` returns.

    ``rhs`` draws afresh.  ``last``, its ``Evaluation``, sits at the
    accepted point after a step, so the step's row reads it.  ``draw_0``, at
    alpha_0, serves the t = 0 row, the fidelity reference and the first
    stage.  A row's fidelity needs ln psi_t at ``draw_0``'s points and
    ln psi_0 at its own draw's; each is read from the other draw when both
    lie on the grid, and evaluated otherwise.  The rows are the rest of the
    state: t and the r^2 integral go on from the last row's, and ``alpha``
    is always the last row's.

    The quadrature engine draws once per parameter vector.  Under HMC an RK
    attempt draws once, for its last stage, at the point the step would
    accept; that draw also serves the row and the next step's first stage.
    The interior stages k2 and k3 reweight the draw at the step's accepted
    alpha, "the anchor", to their own alpha (``_HmcEngine.reweight``); a
    stage whose Kish ESS/n falls below ``MIN_REWEIGHT_ESS`` draws afresh.
    The anchor is ``last`` at the start of the step, so a rejected
    attempt's last stage never becomes it.  ``fresh_draws``,
    ``reweighted_stages`` and ``min_reweight_ess`` (the smallest Kish ESS/n
    of any stage's reweighting, None when there was none) count them;
    ``metadata.json`` adds the engine's ``grad_calls`` as ``hmc_grad_calls``.
    """

    config: RunConfig
    state_0: object
    g: float
    rows: list[dict] = field(default_factory=list, init=False)
    status: str = field(default="ok", init=False)
    fresh_draws: int = field(default=0, init=False)
    reweighted_stages: int = field(default=0, init=False)
    min_reweight_ess: float | None = field(default=None, init=False)

    def __post_init__(self):
        self.engine = _engine(self.config, _MODE_QUENCH)
        self.alpha = np.array(self.state_0.alpha, copy=True)
        self.stepper = AdaptiveStepper(self.config.controller, k1=self.rhs(0.0, self.alpha))
        self.draw_0 = self.last.draw
        self.dt = min(self.config.dt0, self.config.controller.dt_max)
        # fidelity is 1 by construction at t = 0; still estimated
        self.rows.append(self._row(0.0, 0.0))

    @property
    def t(self) -> float:
        return self.rows[-1]["t"]

    @property
    def times(self) -> np.ndarray:
        return np.array([row["t"] for row in self.rows])

    def column(self, name: str) -> np.ndarray:
        return np.array([row[name] for row in self.rows], dtype=np.float64)

    def rhs(self, t, alpha):
        """The right-hand side at alpha from a fresh draw, kept as ``last``."""
        state = self.state_0.with_alpha(alpha)
        draw, qgt = self.engine.draw(state, self.g, self.config.physics.j)
        self.fresh_draws += 1
        alpha_dot, pinv = tdvp_rhs(qgt, self.config.regularization, mode="real")
        r2, _ = residual_r2(qgt, pinv)
        self.last = Evaluation(state, draw, pinv.rho, pinv.lambda2, r2,
                               float(np.real(qgt.e_mean)))
        return alpha_dot

    def stage(self, anchor: Draw, t, alpha):
        """An interior stage's right-hand side at alpha from ``anchor``
        reweighted, or from a fresh draw when the reweighting's Kish ESS/n
        falls below ``MIN_REWEIGHT_ESS``."""
        state = self.state_0.with_alpha(alpha)
        qgt, ess = self.engine.reweight(state, self.g, self.config.physics.j, anchor)
        if self.min_reweight_ess is None or ess < self.min_reweight_ess:
            self.min_reweight_ess = ess
        if ess < MIN_REWEIGHT_ESS:
            return self.rhs(t, alpha)
        self.reweighted_stages += 1
        return tdvp_rhs(qgt, self.config.regularization, mode="real")[0]

    def run(self) -> None:
        """Step to t_max.  A failure, an interrupt included, sets the status to
        its reason and propagates; the rows so far and alpha stay those of
        the last row."""
        try:
            while self.t < self.config.physics.t_max - 1e-12:
                self.step()
        except BaseException as exc:
            self.status = getattr(exc, "reason", type(exc).__name__)
            raise

    def write(self, out_dir, mode: str, tables=(), **fields) -> None:
        """The rows, every RK attempt and the status, with ``tables`` and
        ``fields`` besides, through ``write_outputs``, and the last row's
        alpha and t as ``final_state.npz``."""
        out_dir = write_outputs(
            out_dir, mode, self.config,
            [("trajectory.csv", TRAJECTORY_COLUMNS, self.rows),
             ("steps.csv", STEP_COLUMNS, [vars(a) for a in self.stepper.attempts]),
             *tables],
            status=self.status, steps=len(self.rows) - 1, final_time=self.t,
            sampler_warnings=self.engine.warnings, fresh_draws=self.fresh_draws,
            hmc_grad_calls=self.engine.grad_calls,
            reweighted_stages=self.reweighted_stages,
            min_reweight_ess=self.min_reweight_ess, **fields,
        )
        save_checkpoint(out_dir / "final_state.npz", self.state_0.with_alpha(self.alpha),
                        self.t, extra={"status": self.status})

    def step(self) -> None:
        """Advance by one accepted step, whose size its row carries; the row
        and alpha are committed only once the row is built."""
        t = self.t
        dt = min(self.dt, self.config.physics.t_max - t)
        # quadrature weights are exact at every alpha: its stages draw
        stage_fn = None
        if isinstance(self.engine, _HmcEngine):
            stage_fn = partial(self.stage, self.last.draw)
        alpha, t, dt = self.stepper.advance(self.rhs, self.alpha, t, dt, stage_fn)
        row = self._row(t, self.stepper.attempts[-1].dt)
        self.rows.append(row)
        self.alpha, self.dt = alpha, dt

    def _row(self, t: float, dt: float) -> dict:
        last, draw_0, draw_t = self.last, self.draw_0, self.last.draw
        diag = draw_t.diag
        fres = observables.fidelity_of_log_ratios(
            _log_psi_at(last.state, draw_0, draw_t) - draw_0.log_psi,
            _log_psi_at(self.state_0, draw_t, draw_0) - draw_t.log_psi,
            weights_0=draw_0.weights, weights_t=draw_t.weights,
        )
        if fres.overlap_lost:
            raise RunnerError("fidelity-overlap-loss",
                              f"overlap estimator underflowed at t={t:.4f}")
        r2_integral = 0.0
        if self.rows:
            prev = self.rows[-1]
            r2_integral = prev["r2_integral"] + 0.5 * (prev["r2"] + last.r2) * (t - prev["t"])
        return {
            **_observables(draw_t, self.config),
            "t": t,
            "dt": dt,
            "energy": last.energy,
            "fidelity": fres.value,
            "fidelity_sigma": fres.sigma,
            "rho": last.rho,
            "lambda2": last.lambda2,
            "r2": last.r2,
            "r2_integral": r2_integral,
            "acceptance": float(np.mean(diag.acceptance)) if diag else None,
            "divergences": int(np.sum(diag.divergences)) if diag else 0,
            "rhat_max": diag.rhat_max if diag else None,
        }


def run_quench(config: RunConfig, initial_state, out_dir: Path | None = None,
               g_final: float | None = None) -> Quench:
    """Real-time variational dynamics under g_final from ``initial_state``."""
    g = config.physics.g_final if g_final is None else g_final
    quench = Quench(config, initial_state, g)
    # a failure after the t = 0 row, an interrupt included, keeps the rows so far
    try:
        quench.run()
    finally:
        if out_dir is not None:
            quench.write(out_dir, "quench")
    return quench


# ---------------------------------------------------------------------------
# oracle benchmark


def run_oracle_benchmark(config: RunConfig, initial_state=None,
                         out_dir: Path | None = None):
    """Paired t-VMC / exact-evolution curves from the same initial state.

    Returns (Quench, exact rows, summary dict).  The exact engine
    projects the variational initial state onto the truncated basis, evolves
    it one total-M sector at a time, and is evaluated at the t-VMC output times.
    """
    lattice = config.lattice
    basis = exact.TruncatedBasis(lattice.n_sites, config.m_cut)
    exact.check_dim(exact.largest_sector(basis.n_sites, basis.m_cut))
    exact.check_grid(basis.n_sites, exact.projection_points(basis.m_cut))
    if initial_state is None:
        gs = run_ground_state(config)
        initial_state = gs.state
    dense0, alias_mass = exact.vqs_to_dense(initial_state, basis)
    hamiltonian = exact.build_hamiltonian(
        basis, lattice, config.physics.g_final, config.physics.j
    )
    evolver = exact.ExactEvolver(hamiltonian)

    record = Quench(config, initial_state, config.physics.g_final)
    try:
        record.run()
    except BaseException:
        # the rows so far, without the exact reference
        if out_dir is not None:
            record.write(out_dir, "oracle-benchmark")
        raise

    exact_rows = []
    for row in record.rows:
        dense_t = evolver.evolve(dense0, row["t"])
        obs = exact.exact_observables(dense_t, basis, lattice, J=config.physics.j)
        exact_rows.append(
            {"t": row["t"], **obs, "fidelity": exact.exact_fidelity(dense0, dense_t)})

    pairs = list(zip(record.rows, exact_rows))
    summary = {
        "alias_mass": alias_mass,
        "max_e_pot_error": max(abs(r["e_pot"] - x["e_pot"]) for r, x in pairs),
        "max_fidelity_error": max(abs(r["fidelity"] - x["fidelity"]) for r, x in pairs),
    }
    if out_dir is not None:
        record.write(out_dir, "oracle-benchmark", [
            ("exact_reference.csv",
             ["t", "e_pot", "mag_x", "mag_y", "var_mean", "fidelity"], exact_rows),
        ], summary=summary)
    return record, exact_rows, summary


# ---------------------------------------------------------------------------
# sampler check


SAMPLER_NS_SWEEP = (250, 500, 1000, 2000, 4000)
SAMPLER_L_SWEEP = (1, 2, 10, 20)


def run_sampler_check(config: RunConfig, state=None, out_dir: Path | None = None):
    """Hyperparameter sweeps on a frozen target state, drawn by one engine.

    Sweeps samples-per-chain for the magnetization error bar scaling and the
    leapfrog length for the variance-reduction comparison; returns a report
    dict with both tables and the fitted scaling slope.
    """
    if state is None:
        state = start_state(config)
    engine = _HmcEngine(config, _MODE_SAMPLER_CHECK)

    ns_rows = []
    for idx, n_samples in enumerate(SAMPLER_NS_SWEEP):
        samples, diag = engine.sample(state, replace(config.hmc, n_samples=n_samples), idx)
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
        samples, diag = engine.sample(state, replace(config.hmc, l0=l0), 100 + idx)
        mag, _, _, sigma = observables.magnetization(samples)
        # bootstrap distribution of the error bar, reused for the L comparison
        per_sample = np.hypot(
            np.sum(np.cos(samples), axis=-1), np.sum(np.sin(samples), axis=-1)
        ) / state.n_sites
        n_chains = per_sample.shape[0]
        picks = rng.integers(0, n_chains, size=(observables.DEFAULT_RESAMPLES, n_chains))
        sigma_draws[l0] = per_sample[picks].mean(axis=2).std(axis=1) / np.sqrt(n_chains)
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
        write_outputs(out_dir, "sampler-check", config, [
            ("ns_sweep.csv", ["n_samples", "mag", "sigma_mag", "acceptance"], ns_rows),
            ("l_sweep.csv", ["l0", "mag", "sigma_mag", "acceptance"], l_rows),
        ], sigma_slope=slope, variance_reduction_confident=variance_reduction_confident,
           sampler_warnings=dict(engine.warnings), hmc_grad_calls=engine.grad_calls)
    return report
