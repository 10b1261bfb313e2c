"""Benchmark of the rotor-tvmc simulator, run through ``rotor_tvmc.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N
    python3 perfbench/run.py --smoke

Run from anywhere; the program is imported from the ``src/`` directory next
to this one.  Each invocation is one fresh process.  It pins the BLAS thread
count, builds the workload's seeded inputs (INI files and, for the quench,
a checkpoint), then:

- with ``--trace 0`` repeats the workload's CLI calls, untraced and each
  repetition in a fresh process, for about ``--seconds`` seconds (at least
  once) and reports the end-to-end metrics;
- with ``--trace 1`` runs the calls once untraced in a fresh process and once
  in this process with every layer's public functions wrapped from outside
  (see ``tracing.py``), checks that tracing left the output tables
  byte-identical, and reports the per-layer metrics plus the ansatz kernel
  table (``kernels.py``).

Every repetition's outputs are checked (``workloads.py``); a repetition whose
CLI call exits non-zero or whose check fails counts as failed.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; metric names and units come from
``BENCHMARK.json``.  A record of the run, with the machine and software it ran
on, is written to ``.perfbench/results/`` in the checkout.

``--all`` runs every workload untraced, each in a fresh process, and prints
each end-to-end metric with its unit.  ``--smoke`` is the benchmark's
self-test: every workload at a tiny size, in both modes.  It checks that
every metric in ``BENCHMARK.json`` is emitted with its unit and that a
corrupted oracle reference fails the check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# one BLAS thread: HMC chains depend on the reduction order, and a single
# thread keeps run-to-run spread low on a small shared machine
BLAS_THREADS = "1"
SETUP_SAMPLES = 5
SEED_SALT_KERNELS = 30

ORACLE = "oracle_c1_quadrature"
WORKLOADS = ("quench_hmc_4x4", ORACLE, "ground_state_hmc_6x6")


def pin_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def import_program():
    """Import rotor_tvmc from this checkout's src/, or exit with an error."""
    if not (SRC / "rotor_tvmc" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}/rotor_tvmc")
    sys.path.insert(0, str(SRC))
    import rotor_tvmc.cli

    if SRC.resolve() not in Path(rotor_tvmc.cli.__file__).resolve().parents:
        sys.exit(f"perfbench: rotor_tvmc was imported from {rotor_tvmc.cli.__file__}")
    return rotor_tvmc.cli


def metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@dataclass
class Rep:
    wall_s: float
    error: str | None = None
    check_failed: bool = False
    info: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    # sha256 of each output table, for the tracing byte-identity check
    digests: list = field(default_factory=list)


def run_rep(cli, wl) -> Rep:
    """One timed repetition of the workload's CLI calls, then its check."""
    from workloads import CheckFailed

    for out in wl.out_dirs:
        shutil.rmtree(out, ignore_errors=True)
    error = None
    with contextlib.redirect_stdout(sys.stderr):
        start = time.perf_counter()
        for argv in wl.calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception:  # noqa: BLE001 - a crash is a failed repetition
                traceback.print_exc()
                code = "exception"
            if code != 0:
                error = f"{argv[0]} exited with {code}"
                break
        wall = time.perf_counter() - start
    rep = Rep(wall_s=wall, error=error)
    if error is None:
        try:
            rep.info = wl.check()
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            rep.error, rep.check_failed = f"check failed: {exc}", True
    if rep.error:
        print(f"perfbench: {wl.name}: {rep.error}", file=sys.stderr)
    rep.digests = [hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None
                   for p in wl.trajectories]
    return rep


def _child(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          stdout=subprocess.PIPE, text=True)


def time_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh process that only sets the workload up:
    interpreter start, imports, INI files and the seeded initial state."""
    start = time.perf_counter()
    proc = _child("--setup-only", "--workload", workload, "--seed", str(seed))
    if proc.returncode:
        sys.exit(f"perfbench: setting {workload} up failed")
    return time.perf_counter() - start


def rep_in_child(workload: str, seed: int, work: Path, smoke: bool) -> Rep:
    """One repetition in a fresh process, as a user's CLI call would run.

    Within one process, later repetitions ran up to 20 % faster than the
    first, so a median over mixed cold and warm repetitions drifted with
    the number of repetitions that fit.
    """
    start = time.perf_counter()
    proc = _child("--rep", "--workload", workload, "--seed", str(seed),
                  "--work", str(work), *(["--smoke"] if smoke else []))
    lines = proc.stdout.strip().splitlines()
    try:
        return Rep(**json.loads(lines[-1]))
    except (IndexError, json.JSONDecodeError, TypeError):
        return Rep(wall_s=time.perf_counter() - start,
                   error=f"repetition process exited with {proc.returncode}")


def end_to_end(wl_name: str, seed: int, seconds: float, work: Path,
               smoke: bool = False) -> tuple[dict, list[Rep]]:
    """Repeat the workload for about ``seconds``; report medians.

    Set-up samples are spread between the repetitions, so that both medians
    span the same stretch of the machine's (varying) speed.
    """
    setups = [time_setup(wl_name, seed) for _ in range(2)]
    reps: list[Rep] = []
    begin = time.perf_counter()
    while True:
        reps.append(rep_in_child(wl_name, seed, work / f"rep{len(reps)}", smoke))
        setups.append(time_setup(wl_name, seed))
        typical = statistics.median(r.wall_s for r in reps)
        if time.perf_counter() - begin + typical > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(time_setup(wl_name, seed))
    ok = [r for r in reps if r.error is None]
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "setup_s": statistics.median(setups),
        "steps_per_s": (statistics.median(r.info["steps"] / r.wall_s for r in ok)
                        if ok else 0.0),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
    }
    return metrics, reps


def traced_run(cli, wl, seed: int, work: Path, spans_path: Path | None,
               smoke: bool = False) -> tuple[dict, list[Rep]]:
    """An untraced repetition in a fresh process, then a traced one in this
    process, which has run none before; both start cold."""
    import kernels
    import tracing

    untraced = rep_in_child(wl.name, seed, work, smoke)
    tracer = tracing.Tracer()
    with tracer:
        traced = run_rep(cli, wl)
    if untraced.error is None and traced.digests != untraced.digests:
        traced.error = "tracing changed " + ", ".join(p.name for p in wl.trajectories)
        traced.check_failed = False
        print(f"perfbench: {wl.name}: {traced.error}", file=sys.stderr)
    metrics = tracing.per_layer(tracer, traced.wall_s)
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    metrics["oracle.e_pot_err"] = traced.info.get("oracle_e_pot_err", 0.0)
    metrics["oracle.fid_err"] = traced.info.get("oracle_fid_err", 0.0)
    metrics["runner.bytes_written"] = sum(
        f.stat().st_size for out in wl.out_dirs if out.is_dir()
        for f in out.rglob("*") if f.is_file())
    if spans_path is not None:
        tracing.write_spans(tracer.spans, spans_path)
    metrics.update(kernels.kernel_table(seed + SEED_SALT_KERNELS))
    return metrics, [untraced, traced]


def report(metrics: dict, units: dict) -> dict:
    """Metrics named in BENCHMARK.json, with their units, in its order."""
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def run_workload(args) -> int:
    cli = import_program()
    import envinfo
    import workloads

    e2e_units, layer_units = metric_specs()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = STATE / "work" / f"{tag}-{os.getpid()}"
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            wl = workloads.setup(args.workload, work / "traced", args.seed)
            measured, reps = traced_run(cli, wl, args.seed, work / "untraced",
                                        results / f"{args.workload}-spans.csv")
            units = layer_units
        else:
            measured, reps = end_to_end(args.workload, args.seed, args.seconds, work)
            units = e2e_units
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = report(measured, units)
    failed = sum(1 for r in reps if r.error)
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": envinfo.environment(ROOT),
              "repetitions": [vars(r) for r in reps], **result}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    for rep in reps:
        print(f"repetition: {rep.wall_s:.3f} s {rep.info} {rep.error or 'ok'}")
    for name in ("oracle_e_pot_err", "oracle_fid_err", "rhat_max"):
        if name in reps[-1].info:
            print(f"{name}: {reps[-1].info[name]!r}")
    print("environment:", json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def rep_only(args) -> int:
    """Set up and run one repetition; print it as JSON."""
    cli = import_program()
    import workloads

    wl = workloads.setup(args.workload, Path(args.work), args.seed, smoke=args.smoke)
    rep = run_rep(cli, wl)
    rep.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(asdict(rep)))
    return 0


def setup_only(args) -> int:
    import_program()
    import workloads

    work = STATE / "work" / f"setup-{args.workload}-{os.getpid()}"
    try:
        workloads.setup(args.workload, work, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; prints each end-to-end metric."""
    failed = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        failed += not result["correct"]
        print(f"{name}: correct={result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        for line in lines:
            if line.startswith(("oracle_e_pot_err", "oracle_fid_err", "rhat_max")):
                print(f"  {line}")
    return 1 if failed else 0


def smoke() -> int:
    """Tiny-size self-test of the benchmark itself."""
    cli = import_program()
    import workloads

    e2e_units, layer_units = metric_specs()
    problems = []
    work = STATE / "work" / f"smoke-{os.getpid()}"
    try:
        for name in WORKLOADS:
            measured, reps = end_to_end(name, 1, 0.0, work / name / "e2e", smoke=True)
            wl = workloads.setup(name, work / name / "traced", seed=1, smoke=True)
            layers, traced = traced_run(cli, wl, 1, work / name / "untraced",
                                        spans_path=None, smoke=True)
            for rep in reps + traced:
                # at this size the HMC workloads' physics checks are at the
                # mercy of sampling noise; the quadrature oracle's is not
                if rep.error and (not rep.check_failed or name == ORACLE):
                    problems.append(f"{name}: {rep.error}")
                elif rep.error:
                    print(f"smoke: note: {name}: {rep.error}")
            for units, got in ((e2e_units, measured), (layer_units, layers)):
                try:
                    for metric in report(got, units).values():
                        if not isinstance(metric["value"], (int, float)) or not metric["unit"]:
                            problems.append(f"{name}: malformed metric {metric}")
                except KeyError as exc:
                    problems.append(f"{name}: {exc}")
            if name == ORACLE:
                ref = wl.out_dirs[-1] / "exact_reference.csv"
                lines = ref.read_text().splitlines()
                header, row = lines[0].split(","), lines[1].split(",")
                col = header.index("e_pot")
                row[col] = repr(float(row[col]) + 1.0)
                ref.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
                try:
                    wl.check()
                    problems.append("a corrupted oracle reference passed the check")
                except workloads.CheckFailed:
                    pass
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in a fresh process")
    parser.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rep", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    pin_threads()
    if args.rep:
        return rep_only(args)
    if args.smoke:
        return smoke()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        return setup_only(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
