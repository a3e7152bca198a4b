"""Benchmark of the wrot package: one closed-loop workload per process.

Run from the repository root:

    python3 bench/run.py --workload distance --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory. The last line
of standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones, recorded by timing wrappers around the calls
one ``wrot`` module makes into the next. The lines before it are a readable
report. bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads; one thread is at or below nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import LAYERS, NullTracer, Tracer, layer_metric_names  # noqa: E402
from workloads import WORKLOADS, Reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS_FIRST = 5
SETUP_REPEATS_BETWEEN = 3

# Times are reported at the speed at which the reference kernel (see
# workloads.Reference) takes this long. Each timed unit is scaled by this over
# the kernel time sampled around it, which removes the minute-long fast and
# slow phases of a shared machine that no median within a run can.
REFERENCE_S = 0.003

# name -> (unit, better); the order is the order of the report
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "solve_ms_p50": ("ms", "lower"),
    "solve_ms_p90": ("ms", "lower"),
    "solves_per_s": ("1/s", "higher"),
    "value_ratio": ("1", "lower"),
}


def _layer_units():
    units = {}
    for name in layer_metric_names():
        if name.endswith(".self_ms"):
            units[name] = ("ms", "lower")
        elif name.endswith((".calls", ".failed")):
            units[name] = ("count", "lower")
    units["sinkhorn.residual_max"] = ("1", "lower")
    units["rot_loss.pair_gram_mb_read"] = ("MB_computed", "lower")
    units["frank_wolfe.iters_per_solve_p50"] = ("count", "lower")
    units["frank_wolfe.ms_per_iter_p50"] = ("ms", "lower")
    units["frank_wolfe.converged_frac"] = ("1", "higher")
    units["frank_wolfe.negative_gap_frac"] = ("1", "lower")
    units["trace.overhead_ratio"] = ("1", "lower")
    return units


PER_LAYER = _layer_units()


def import_wrot() -> SimpleNamespace:
    """Import the package afresh from ``src/`` and return its modules."""
    for name in [n for n in sys.modules if n == "wrot" or n.startswith("wrot.")]:
        del sys.modules[name]
    modules = {layer: importlib.import_module(f"wrot.{layer}") for layer in LAYERS}
    origin = Path(sys.modules["wrot"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"wrot was imported from {origin}, not from {ROOT / 'src'}")
    return SimpleNamespace(**modules)


def run_cycles(one_cycle, seconds, between=None):
    """Repeat whole cycles while the next one is expected to fit (at least
    one), calling ``between`` after each cycle."""
    cycles = []
    started = perf_counter()
    while True:
        gc.collect()  # garbage from earlier cycles is not this cycle's cost
        cycle_started = perf_counter()
        cycles.append(one_cycle())
        last = perf_counter() - cycle_started
        if between is not None:
            between()
        if perf_counter() - started + last > seconds:
            return cycles


def timed_run(workload, seconds):
    setup_s = []
    reference = Reference(repeats=3)

    def set_up(repeats):
        for _ in range(repeats):
            gc.collect()
            reference.sample()
            started = perf_counter()
            inputs = workload.setup(import_wrot(), NullTracer())
            seconds = perf_counter() - started
            setup_s.append(seconds * REFERENCE_S / reference.around())
        return inputs

    # set-up repeats are spread over the run, like the cycles, so that both
    # medians see the same mix of fast and slow phases of a shared machine
    inputs = set_up(SETUP_REPEATS_FIRST)
    cycles = run_cycles(lambda: workload.cycle(inputs, NullTracer()), seconds,
                        lambda: set_up(SETUP_REPEATS_BETWEEN))

    # Every kind of unit (one problem, one label space, the training epochs)
    # recurs in each cycle; its time per solve is its median over the run.
    kinds = {}
    for unit in (u for c in cycles for u in c.units):
        kind = kinds.setdefault(unit.kind, {"per_solve_s": [], "solves": 0, "failed": False})
        kind["per_solve_s"].append(unit.seconds / unit.solves * REFERENCE_S / unit.reference_s)
        kind["solves"] += unit.solves
        kind["failed"] |= unit.failed
    per_solve_s = {k: statistics.median(v["per_solve_s"]) for k, v in kinds.items()}
    per_solve_ms = np.repeat(
        [np.inf if v["failed"] else 1e3 * per_solve_s[k] for k, v in kinds.items()],
        [v["solves"] for v in kinds.values()],
    )
    done = sum(v["solves"] for v in kinds.values() if not v["failed"])
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "solve_ms_p50": float(np.percentile(per_solve_ms, 50, method="lower")),
        "solve_ms_p90": float(np.percentile(per_solve_ms, 90, method="lower")),
        "solves_per_s": done / sum(v["solves"] * per_solve_s[k] for k, v in kinds.items()),
        "value_ratio": float(np.median([r for c in cycles for r in c.ratios])),
    }
    reference_ms = 1e3 * statistics.median(u.reference_s for c in cycles for u in c.units)
    notes = [f"timed units {sum(len(c.units) for c in cycles)} of {len(kinds)} kinds, "
             f"solves {len(per_solve_ms)}, set-ups {len(setup_s)}",
             f"reference kernel {reference_ms:.3f} ms, times scaled to {1e3 * REFERENCE_S:g} ms"]
    return cycles, metrics, END_TO_END, notes, True


def traced_run(workload, seconds):
    """Alternate untraced and traced rounds (set-up plus one cycle each)."""
    wrot = import_wrot()
    cycles, untraced_s, traced_s, summaries = [], [], [], []
    missing = set()
    started = perf_counter()
    while True:
        gc.collect()
        round_started = perf_counter()
        cycles.append(workload.cycle(workload.setup(wrot, NullTracer()), NullTracer()))
        untraced_s.append(perf_counter() - round_started)

        tracer = Tracer()
        gc.collect()
        tracer.install()
        try:
            round_started = perf_counter()
            cycles.append(workload.cycle(workload.setup(wrot, tracer), tracer))
            traced_s.append(perf_counter() - round_started)
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        missing.update(tracer.missing)
        if perf_counter() - started + untraced_s[-1] + traced_s[-1] > seconds:
            break

    metrics = {k: statistics.median_low(s[k] for s in summaries) for k in summaries[0]}
    counts = [k for k in metrics if k.endswith((".calls", ".failed"))]
    repeatable = all(s[k] == summaries[0][k] for s in summaries for k in counts)
    metrics["sinkhorn.residual_max"] = max(s["sinkhorn.residual_max"] for s in summaries)

    fw = [f for c in cycles[1::2] for f in c.fw]
    iters = [f[0] for f in fw]
    metrics["frank_wolfe.iters_per_solve_p50"] = float(np.median(iters)) if fw else 0.0
    metrics["frank_wolfe.ms_per_iter_p50"] = float(np.median([f[1] / f[0] for f in fw])) if fw else 0.0
    metrics["frank_wolfe.converged_frac"] = sum(f[2] for f in fw) / len(fw) if fw else 0.0
    metrics["frank_wolfe.negative_gap_frac"] = sum(f[3] < 0 for f in fw) / len(fw) if fw else 0.0
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s)

    notes = [f"traced rounds {len(traced_s)}, counts repeat exactly: {repeatable}"]
    if missing:
        notes.append(f"bindings not found (spans absent): {', '.join(sorted(missing))}")
    return cycles, metrics, PER_LAYER, notes, repeatable


def blas_info():
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        name = "unknown"
    return name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wrot" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'wrot'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, import_wrot())
        run = traced_run if args.trace else timed_run
        cycles, metrics, spec, notes, consistent = run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    # Every cycle repeats the same operations, so an operation counts once:
    # the counts depend on the seed alone, not on how many cycles fit.
    outcomes = cycles[0].outcomes
    problems = [p for p in outcomes.values() if p is not None]
    repeats = all(c.fingerprint == cycles[0].fingerprint and c.outcomes == outcomes for c in cycles)
    report = {k: statistics.median(c.report[k] for c in cycles if k in c.report)
              for k in dict.fromkeys(k for c in cycles for k in c.report)}

    print(f"env: nproc={len(os.sched_getaffinity(0))} numpy={np.__version__} "
          f"scipy={scipy.__version__} blas={blas_info()} blas_threads={BLAS_THREADS}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} cycles={len(cycles)}")
    for note in notes:
        print(note)
    print(f"outputs repeat exactly between cycles: {repeats}")
    for problem, count in sorted(Counter(problems).items()):
        print(f"failed x{count}: {problem}")
    for name, value in report.items():
        print(f"report {name} = {value:.6g}")
    for name, value in metrics.items():
        unit, better = spec[name]
        print(f"metric {name} = {value:.6g} {unit} ({better} is better)")

    result = {
        "correct": repeats and consistent,
        "attempted": len(outcomes),
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": spec[name][0]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
