"""Check that this checkout computes what another checkout computes, bit for bit.

Runs one cycle of each benchmark workload of ``bench/workloads.py`` per seed
in both checkouts, each in its own interpreter with the package from that
checkout's ``src/``, and compares the cycles' output fingerprints with
``==``; where they differ it prints how many outputs differ, the index of
the first and both its values. A fingerprint lists every value of the
``distance`` workload (or the exception a solve raised); every held-out
AUC, ``sgd_train`` epoch loss and contour-file hash of ``loss``; and every
epoch loss of ``grouped``. Floats are compared through ``float.hex``.
Where the package has ``sinkhorn._in_range``, the script also counts the
Sinkhorn solves whose once-per-solve range test failed, so that their
rounds ran again with the per-round test, and prints that count for both
checkouts.

Run from the repository root:

    python3 scripts/parity.py OTHER_CHECKOUT --seeds 11 12

Exits 1 if any fingerprint differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("distance", "loss", "grouped")


def fingerprint(root, workload, seed):
    """One cycle of ``workload`` in the checkout ``root``: its fingerprint
    and the count of Sinkhorn reruns (None where the package has no
    once-per-solve test)."""
    sys.path[:0] = [str(root / "bench"), str(root / "src")]
    from run import import_wrot  # also pins BLAS to one thread
    from tracer import NullTracer
    from workloads import WORKLOADS as KINDS

    wrot = import_wrot()
    reruns = None
    in_range = getattr(wrot.sinkhorn, "_in_range", None)
    if in_range is not None:
        reruns = 0

        def counting(scalings):
            nonlocal reruns
            ok = in_range(scalings)
            # the once-per-solve test gets the list of all the solve's
            # scalings, the per-round test a tuple
            reruns += isinstance(scalings, list) and not ok
            return ok

        wrot.sinkhorn._in_range = counting
    with tempfile.TemporaryDirectory() as tmp:
        kind = KINDS[workload](seed, Path(tmp), wrot)
        cycle = kind.cycle(kind.setup(wrot, NullTracer()), NullTracer())
    values = [v.hex() if isinstance(v, float) else v for v in cycle.fingerprint]
    return {"fingerprint": values, "reruns": reruns}


def compare(here, there):
    """``identical``, or how many outputs of the fingerprints ``here`` and
    ``there`` differ, the first one's index and both its values (floats as
    ``float.hex``). An output one fingerprint lacks shows as None."""
    differ = [i for i, (a, b) in enumerate(zip_longest(here, there)) if a != b]
    if not differ:
        return "identical"
    first = differ[0]
    ours, theirs = (fp[first] if first < len(fp) else None for fp in (here, there))
    return (f"DIFFERENT in {len(differ)} outputs, first at index {first}: "
            f"here {ours}, there {theirs}")


def run_child(root, workload, seed):
    out = subprocess.run(
        [sys.executable, __file__, "--child", str(root), workload, str(seed)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--child"]:
        root, workload, seed = sys.argv[2:5]
        print(json.dumps(fingerprint(Path(root).resolve(), workload, int(seed))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="the checkout to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 12])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args(argv)
    differ = 0
    for workload in args.workloads:
        for seed in args.seeds:
            here = run_child(ROOT, workload, seed)
            there = run_child(args.other.resolve(), workload, seed)
            verdict = compare(here["fingerprint"], there["fingerprint"])
            differ += verdict != "identical"
            print(f"{workload} seed {seed}: {len(here['fingerprint'])} outputs, "
                  f"{verdict}; reruns here {here['reruns']}, there {there['reruns']}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
