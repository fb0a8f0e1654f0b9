#!/usr/bin/env python3
"""Fingerprints of one round of every benchmark workload: a bit-identity check.

    python3 tools/fingerprints.py ROOT SEED

It imports ``ROOT/perfbench/workloads.py`` against the library in
``ROOT/src``, runs one round of each workload in ``workloads.WORKLOADS`` with
``SEED``, and prints one JSON object that maps ``workload/operation`` to
``workloads.fingerprint`` of the operation's record, or to the error the
operation raised.  Two checkouts give the same outputs on the benchmark's
operations when they print the same object for the same seed:

    diff <(python3 tools/fingerprints.py OLD 3) <(python3 tools/fingerprints.py NEW 3)

Like the benchmark, it runs with one BLAS thread.  It writes nothing outside
a temporary directory.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


def fingerprints(root: Path, seed: int) -> dict:
    """``workload/operation`` -> fingerprint of one round of every workload under ``root``."""
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import workloads

    prints = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in workloads.WORKLOADS.items():
            workload = make(seed)
            rdir = Path(tmp) / name
            rdir.mkdir()
            rnd = workloads.Round()
            workload.run_round(rnd, rdir)
            for op, output in rnd.outputs.items():
                prints[f"{name}/{op}"] = (
                    f"error: {rnd.errors[op]}" if op in rnd.errors
                    else workloads.fingerprint(workload.record(op, output, rdir)))
    return prints


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="checkout holding perfbench/ and src/")
    parser.add_argument("seed", type=int, help="the workloads' seed")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "perfbench" / "workloads.py").is_file():
        parser.error(f"no perfbench/workloads.py under {root}")
    print(json.dumps(fingerprints(root, args.seed), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
