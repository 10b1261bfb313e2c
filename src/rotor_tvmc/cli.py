"""Command-line entry point.

Verbs: ground-state, quench, oracle-benchmark, sampler-check.  Each builds
its start state (``runner.start_state``) before any other work.  Exit codes:
0 success, 2 configuration error, 3 numerical failure or unusable
``--resume`` checkpoint, 4 resource guard exceeded.  Exit code 3 leaves a
typed reason in ``failure.json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .ansatz import AnsatzError, LogPsiNonFinite
from .config import ConfigError, load_config
from .exact import OracleGuardError
from .hmc import WarmupError
from .integrator import StepSizeUnderflow
from .runner import (
    RunnerError,
    run_ground_state,
    run_oracle_benchmark,
    run_quench,
    run_sampler_check,
    start_state,
    write_metadata,
)
from .tdvp import TdvpError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_GUARD = 4

_NUMERICAL = (RunnerError, StepSizeUnderflow, WarmupError, TdvpError, LogPsiNonFinite,
              np.linalg.LinAlgError, FloatingPointError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotor-tvmc",
        description="Variational Monte Carlo dynamics of planar-rotor lattices",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in (
        ("ground-state", "prepare a variational ground state in imaginary time"),
        ("quench", "real-time dynamics after a coupling quench"),
        ("oracle-benchmark", "paired variational vs exact-evolution curves"),
        ("sampler-check", "sampler hyperparameter sweeps on a frozen state"),
    ):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--config", required=True, help="path to the INI run config")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--resume", default=None,
                       help="checkpoint (.npz) providing the initial parameters")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["out_dir"] = Path(args.out)
        config = load_config(args.config, overrides)
    except (ConfigError, AnsatzError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = config.out_dir
    try:
        # built before any verb starts, so a bad [ansatz] exits 2 first
        state = start_state(config, args.resume)
        resumed = args.resume is not None
        if args.verb == "ground-state":
            result = run_ground_state(config, state, out_dir)
            print(f"converged in {result.iterations} iterations; "
                  f"E/N = {result.energies[-1] / config.lattice.n_sites:.6f}")
        elif args.verb == "quench":
            if not resumed:
                state = run_ground_state(config, state, out_dir / "ground-state").state
            record = run_quench(config, state, out_dir=out_dir)
            print(f"{len(record.rows) - 1} accepted steps to "
                  f"t = {record.rows[-1]['t']:.4f}")
        elif args.verb == "oracle-benchmark":
            record, _, summary = run_oracle_benchmark(
                config, initial_state=state if resumed else None, out_dir=out_dir
            )
            print(f"max potential-energy deviation {summary['max_e_pot_error']:.3e}, "
                  f"max fidelity deviation {summary['max_fidelity_error']:.3e}")
        else:
            report = run_sampler_check(config, state, out_dir)
            print(f"sigma_M scaling slope {report['sigma_slope']:.3f}; "
                  f"variance reduction confident: "
                  f"{report['variance_reduction_confident']}")
    except (ConfigError, AnsatzError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleGuardError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except _NUMERICAL as exc:
        reason = getattr(exc, "reason", type(exc).__name__)
        label = ("checkpoint error" if reason.startswith("checkpoint-")
                 else "numerical failure")
        print(f"{label} [{reason}]: {exc}", file=sys.stderr)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            write_metadata(out_dir / "failure.json",
                           {"reason": reason, "message": str(exc)})
        except OSError:
            pass
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
