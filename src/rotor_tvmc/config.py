"""Run configuration: INI-style files parsed into validated dataclasses.

Every hyperparameter has an embedded default except the ones that silently
changing would corrupt a study: lattice extents, boundary conditions, the
ansatz kind and the quench couplings must be written out explicitly.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .hmc import HmcConfig
from .integrator import StepController
from .lattice import Lattice, build_lattice
from .tdvp import RegularizationPolicy


class ConfigError(ValueError):
    pass


# regularization floors by lattice dimensionality (absolute, relative)
_REG_DEFAULTS = {1: (1e-5, 1e-4), 2: (1e-4, 1e-2)}


@dataclass
class PhysicsConfig:
    g_initial: float
    g_final: float
    j: float = 1.0
    t_max: float = 1.0

    def __post_init__(self):
        if min(self.g_initial, self.g_final, self.j) <= 0:
            raise ConfigError("couplings g_initial, g_final and j must be positive")
        if self.t_max <= 0:
            raise ConfigError("t_max must be positive")


@dataclass
class GroundStateConfig:
    tau: float = 0.01  # imaginary-time step
    tolerance: float = 1e-4  # |delta <H>| / (N J) over the window
    window: int = 20
    max_iters: int = 2000

    def __post_init__(self):
        if self.tau <= 0 or self.tolerance <= 0:
            raise ConfigError("tau and tolerance must be positive")
        if self.window < 2 or self.max_iters < self.window:
            raise ConfigError("need window >= 2 and max_iters >= window")


@dataclass
class RunConfig:
    lattice: Lattice
    ansatz_kind: str
    physics: PhysicsConfig
    ansatz_hyper: dict = field(default_factory=dict)
    hmc: HmcConfig = field(default_factory=HmcConfig)
    regularization: RegularizationPolicy | None = None
    controller: StepController = field(default_factory=StepController)
    ground_state: GroundStateConfig = field(default_factory=GroundStateConfig)
    seed: int = 0
    out_dir: Path = Path("runs")
    sampling: str = "hmc"  # "hmc" or "quadrature" (noiseless grid averages)
    quadrature_points: int = 16
    resample: str = "per-stage"  # "per-step" reuses one sample set (biased)
    dt0: float = 0.01
    checkpoint_stride: int = 10
    m_cut: int = 5  # truncated-basis oracle cutoff

    def __post_init__(self):
        if self.regularization is None:
            a_c, r_c = _REG_DEFAULTS.get(self.lattice.ndim, _REG_DEFAULTS[2])
            self.regularization = RegularizationPolicy(a_c=a_c, r_c=r_c)
        if self.sampling not in ("hmc", "quadrature"):
            raise ConfigError(f"sampling must be 'hmc' or 'quadrature', got {self.sampling!r}")
        if self.resample not in ("per-stage", "per-step"):
            raise ConfigError(f"resample must be 'per-stage' or 'per-step', got {self.resample!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")
        if self.quadrature_points < 2:
            raise ConfigError("quadrature_points >= 2 required")
        if self.dt0 <= 0 or self.checkpoint_stride < 1 or self.m_cut < 1:
            raise ConfigError("dt0, checkpoint_stride and m_cut must be positive")
        self.out_dir = Path(self.out_dir)


_BOOL = {"true": True, "yes": True, "on": True, "1": True,
         "false": False, "no": False, "off": False, "0": False}


def _parse_bool(token: str, key: str) -> bool:
    try:
        return _BOOL[token.strip().lower()]
    except KeyError:
        raise ConfigError(f"{key}: cannot parse {token!r} as a boolean") from None


def _get(section, key, cast, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"[{section.name}] is missing required key '{key}'")
        return default
    raw = section[key].strip()
    try:
        return cast(raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section.name}] {key} = {raw!r}: {exc}") from None


def _parse_lattice(section) -> Lattice:
    dims = _get(section, "dims", lambda s: tuple(int(tok) for tok in s.split()),
                required=True)
    raw = section.get("periodic")
    if raw is None:
        raise ConfigError(
            "[lattice] must state boundary conditions explicitly, e.g. "
            "'periodic = true' or 'periodic = true false'"
        )
    tokens = raw.split()
    if len(tokens) == 1:
        periodic = (_parse_bool(tokens[0], "periodic"),) * len(dims)
    elif len(tokens) == len(dims):
        periodic = tuple(_parse_bool(t, "periodic") for t in tokens)
    else:
        raise ConfigError("[lattice] periodic needs one flag total or one per axis")
    try:
        return build_lattice(dims, periodic)
    except ValueError as exc:
        raise ConfigError(f"[lattice] {exc}") from None


def _parse_ansatz(section) -> tuple[str, dict]:
    kind = _get(section, "kind", str, required=True).lower()
    hyper = {}
    if "n_hidden" in section:
        hyper["n_hidden"] = _get(section, "n_hidden", int)
    if "convolutional" in section:
        hyper["convolutional"] = _parse_bool(section["convolutional"], "convolutional")
    if "depth" in section:
        hyper["depth"] = _get(section, "depth", int)
    if "n_modes" in section:
        hyper["n_modes"] = _get(section, "n_modes", int)
    if "kernel" in section:
        hyper["kernel_shape"] = _get(
            section, "kernel", lambda s: tuple(int(tok) for tok in s.split())
        )
    known = {"kind", "n_hidden", "convolutional", "depth", "n_modes", "kernel"}
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"[ansatz] unknown keys: {sorted(unknown)}")
    return kind, hyper


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse an INI run configuration; ``overrides`` wins over the file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None

    for required in ("lattice", "ansatz", "physics"):
        if not parser.has_section(required):
            raise ConfigError(f"config must contain a [{required}] section")

    lattice = _parse_lattice(parser["lattice"])
    kind, hyper = _parse_ansatz(parser["ansatz"])

    phys = parser["physics"]
    physics = PhysicsConfig(
        g_initial=_get(phys, "g_initial", float, required=True),
        g_final=_get(phys, "g_final", float, required=True),
        j=_get(phys, "j", float, 1.0),
        t_max=_get(phys, "t_max", float, 1.0),
    )

    hmc_sec = parser["hmc"] if parser.has_section("hmc") else {}
    try:
        hmc = HmcConfig(
            l0=_get(hmc_sec, "l0", int, 20),
            jitter=_get(hmc_sec, "jitter", float, 0.2),
            eps0=_get(hmc_sec, "eps0", float, 0.1),
            target_accept=_get(hmc_sec, "target_accept", float, 0.8),
            n_warmup=_get(hmc_sec, "n_warmup", int, 800),
            n_slow_windows=_get(hmc_sec, "n_slow_windows", int, 5),
            n_samples=_get(hmc_sec, "n_samples", int, 2000),
            n_chains=_get(hmc_sec, "n_chains", int, 20),
        )
    except ValueError as exc:
        raise ConfigError(f"[hmc] {exc}") from None

    reg = None
    if parser.has_section("regularization"):
        sec = parser["regularization"]
        defaults = _REG_DEFAULTS.get(lattice.ndim, _REG_DEFAULTS[2])
        try:
            reg = RegularizationPolicy(
                a_c=_get(sec, "a_c", float, defaults[0]),
                r_c=_get(sec, "r_c", float, defaults[1]),
            )
        except ValueError as exc:
            raise ConfigError(f"[regularization] {exc}") from None

    ode = parser["ode"] if parser.has_section("ode") else {}
    try:
        controller = StepController(
            atol=_get(ode, "atol", float, 1e-3),
            rtol=_get(ode, "rtol", float, 1e-3),
            dt_min=_get(ode, "dt_min", float, 1e-5),
            dt_max=_get(ode, "dt_max", float, 0.1),
        )
    except ValueError as exc:
        raise ConfigError(f"[ode] {exc}") from None
    dt0 = _get(ode, "dt0", float, 0.01) if ode else 0.01

    gs = parser["ground-state"] if parser.has_section("ground-state") else {}
    ground_state = GroundStateConfig(
        tau=_get(gs, "tau", float, 0.01),
        tolerance=_get(gs, "tolerance", float, 1e-4),
        window=_get(gs, "window", int, 20),
        max_iters=_get(gs, "max_iters", int, 2000),
    )

    run = parser["run"] if parser.has_section("run") else {}
    kwargs = dict(
        lattice=lattice,
        ansatz_kind=kind,
        ansatz_hyper=hyper,
        physics=physics,
        hmc=hmc,
        regularization=reg,
        controller=controller,
        ground_state=ground_state,
        dt0=dt0,
        seed=_get(run, "seed", int, 0),
        out_dir=_get(run, "out", Path, Path("runs")),
        sampling=_get(run, "sampling", str, "hmc"),
        quadrature_points=_get(run, "quadrature_points", int, 16),
        resample=_get(run, "resample", str, "per-stage"),
        checkpoint_stride=_get(run, "checkpoint_stride", int, 10),
        m_cut=_get(run, "m_cut", int, 5),
    )
    if overrides:
        kwargs.update(overrides)
    return RunConfig(**kwargs)


def config_echo(config: RunConfig) -> dict:
    """Every effective value, flat and JSON-serializable, for run metadata."""
    return {
        "lattice": {
            "dims": list(config.lattice.dims),
            "periodic": list(config.lattice.periodic),
        },
        "ansatz": {"kind": config.ansatz_kind, **config.ansatz_hyper},
        "physics": {
            "g_initial": config.physics.g_initial,
            "g_final": config.physics.g_final,
            "j": config.physics.j,
            "t_max": config.physics.t_max,
        },
        "hmc": {
            "l0": config.hmc.l0,
            "jitter": config.hmc.jitter,
            "eps0": config.hmc.eps0,
            "target_accept": config.hmc.target_accept,
            "n_warmup": config.hmc.n_warmup,
            "n_slow_windows": config.hmc.n_slow_windows,
            "n_samples": config.hmc.n_samples,
            "n_chains": config.hmc.n_chains,
        },
        "regularization": {
            "a_c": config.regularization.a_c,
            "r_c": config.regularization.r_c,
        },
        "ode": {
            "atol": config.controller.atol,
            "rtol": config.controller.rtol,
            "dt_min": config.controller.dt_min,
            "dt_max": config.controller.dt_max,
            "dt0": config.dt0,
        },
        "ground_state": {
            "tau": config.ground_state.tau,
            "tolerance": config.ground_state.tolerance,
            "window": config.ground_state.window,
            "max_iters": config.ground_state.max_iters,
        },
        "run": {
            "seed": config.seed,
            "out": str(config.out_dir),
            "sampling": config.sampling,
            "quadrature_points": config.quadrature_points,
            "resample": config.resample,
            "checkpoint_stride": config.checkpoint_stride,
            "m_cut": config.m_cut,
        },
    }
