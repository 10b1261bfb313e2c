"""Run configuration: INI-style files parsed into validated dataclasses.

Every hyperparameter has an embedded default except the ones that silently
changing would corrupt a study: lattice extents, boundary conditions, the
ansatz kind and the quench couplings must be written out explicitly.

The keys of each optional section are the fields of the dataclass it builds
(``_SECTIONS``); a key's type is the field's annotation and its default is the
field's default.  Only ``[ode] dt0`` and the ``[run]`` keys, which set
``RunConfig`` fields, are listed by hand.  An unknown key or section is an
error.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from .hmc import HmcConfig
from .integrator import StepController
from .lattice import Lattice, build_lattice
from .tdvp import RegularizationPolicy


class ConfigError(ValueError):
    pass


# regularization floors of a chain; other lattices keep RegularizationPolicy's
_REG_DEFAULTS = {1: {"a_c": 1e-5, "r_c": 1e-4}}


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
    dt0: float = 0.01
    m_cut: int = 5  # truncated-basis oracle cutoff

    def __post_init__(self):
        if self.regularization is None:
            self.regularization = RegularizationPolicy(
                **_REG_DEFAULTS.get(self.lattice.ndim, {})
            )
        if self.sampling not in ("hmc", "quadrature"):
            raise ConfigError(f"sampling must be 'hmc' or 'quadrature', got {self.sampling!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")
        if self.quadrature_points < 2:
            raise ConfigError("quadrature_points >= 2 required")
        if self.dt0 <= 0 or self.m_cut < 1:
            raise ConfigError("dt0 and m_cut must be positive")
        self.out_dir = Path(self.out_dir)


# INI section -> (RunConfig field, the dataclass whose fields are its keys)
_SECTIONS = {
    "physics": ("physics", PhysicsConfig),
    "hmc": ("hmc", HmcConfig),
    "regularization": ("regularization", RegularizationPolicy),
    "ode": ("controller", StepController),
    "ground-state": ("ground_state", GroundStateConfig),
}

# [run] key -> RunConfig field
_RUN_KEYS = {
    "seed": "seed",
    "out": "out_dir",
    "sampling": "sampling",
    "quadrature_points": "quadrature_points",
    "m_cut": "m_cut",
}
# [run] keys that earlier versions read; accepted and ignored
_RETIRED_RUN_KEYS = frozenset({"n_workers", "resample", "checkpoint_stride"})


def _bool(token: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[token.lower()]
    except KeyError:
        raise ValueError(f"cannot parse {token!r} as a boolean") from None


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split()]


def _bools(text: str) -> tuple[bool, ...]:
    return tuple(_bool(tok) for tok in text.split())


def _read_section(parser, name: str, casts: dict, ignored=frozenset()) -> dict:
    """The keys written in [name], each cast by ``casts``; others are errors."""
    if not parser.has_section(name):
        return {}
    values = {}
    for key, raw in parser[name].items():
        if key in ignored:
            continue
        if key not in casts:
            raise ConfigError(f"[{name}] unknown key '{key}'")
        raw = raw.strip()
        try:
            values[key] = casts[key](raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{name}] {key} = {raw!r}: {exc}") from None
    return values


def _require(values: dict, name: str, key: str) -> None:
    if key not in values:
        raise ConfigError(f"[{name}] is missing required key '{key}'")


def _build(name: str, cls, values: dict):
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING:
            _require(values, name, f.name)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from None


def _parse_lattice(parser) -> Lattice:
    values = _read_section(parser, "lattice", {"dims": _ints, "periodic": _bools})
    _require(values, "lattice", "dims")
    if "periodic" not in values:
        raise ConfigError(
            "[lattice] must state boundary conditions explicitly, e.g. "
            "'periodic = true' or 'periodic = true false'"
        )
    dims, periodic = values["dims"], values["periodic"]
    if len(periodic) == 1:
        periodic = periodic * len(dims)
    elif len(periodic) != len(dims):
        raise ConfigError("[lattice] periodic needs one flag total or one per axis")
    try:
        return build_lattice(dims, periodic)
    except ValueError as exc:
        raise ConfigError(f"[lattice] {exc}") from None


def _parse_ansatz(parser) -> tuple[str, dict]:
    hyper = _read_section(parser, "ansatz", {
        "kind": str, "n_hidden": int, "convolutional": _bool,
        "depth": int, "n_modes": int, "kernel": _ints,
    })
    _require(hyper, "ansatz", "kind")
    return hyper.pop("kind").lower(), hyper


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
    for name in parser.sections():
        if name not in ("lattice", "ansatz", "run", *_SECTIONS):
            raise ConfigError(f"unknown section [{name}]")

    lattice = _parse_lattice(parser)
    kind, hyper = _parse_ansatz(parser)
    run_types = get_type_hints(RunConfig)
    kwargs = dict(lattice=lattice, ansatz_kind=kind, ansatz_hyper=hyper)
    for name, (attr, cls) in _SECTIONS.items():
        casts = get_type_hints(cls)
        if name == "ode":  # the first step, a RunConfig field
            casts["dt0"] = run_types["dt0"]
        values = _read_section(parser, name, casts)
        if "dt0" in values:
            kwargs["dt0"] = values.pop("dt0")
        if cls is RegularizationPolicy:
            values = {**_REG_DEFAULTS.get(lattice.ndim, {}), **values}
        kwargs[attr] = _build(name, cls, values)

    run = _read_section(
        parser, "run",
        {key: run_types[attr] for key, attr in _RUN_KEYS.items()},
        ignored=_RETIRED_RUN_KEYS,
    )
    kwargs.update((_RUN_KEYS[key], value) for key, value in run.items())
    if overrides:
        kwargs.update(overrides)
    return RunConfig(**kwargs)


def config_echo(config: RunConfig) -> dict:
    """Every effective value, flat and JSON-serializable, for run metadata."""
    echo = {
        "lattice": {
            "dims": list(config.lattice.dims),
            "periodic": list(config.lattice.periodic),
        },
        "ansatz": {"kind": config.ansatz_kind, **config.ansatz_hyper},
    }
    for name, (attr, _) in _SECTIONS.items():
        echo[name.replace("-", "_")] = asdict(getattr(config, attr))
    echo["ode"]["dt0"] = config.dt0
    echo["run"] = {key: getattr(config, attr) for key, attr in _RUN_KEYS.items()}
    echo["run"]["out"] = str(config.out_dir)
    return echo
