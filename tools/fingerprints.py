#!/usr/bin/env python3
"""Fingerprints of one round of every benchmark workload: a bit-identity check.

    python3 tools/fingerprints.py ROOT SEED

It imports ``ROOT/perfbench/workloads.py`` against the library in
``ROOT/src``, runs one round of each workload in ``workloads.WORKLOADS`` with
``SEED``, and prints one JSON object that maps ``workload/operation`` to
``workloads.fingerprint`` of the operation's record, or to the error the
operation raised.  One more record, ``toy_sweep``, is the fingerprint of the
toy estimators' outputs on the cases the benchmark's interior 1-D draws never
reach: 2-D and 3-D boxes, an infinite bound, starts at corners, at signed
zeros and outside the box, and rates that drive the iterates onto the bounds
(see :func:`toy_sweep`).  Two checkouts give the same outputs on these
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
from dataclasses import replace  # noqa: E402
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
    prints["toy_sweep"] = toy_sweep(seed)
    return prints


def _toy_games():
    """The shipped games, then a 2-D game and a 3-D game with infinite bounds,
    each written with ``+ - * /`` on its coordinates, as a toy value is."""
    from proxgap.oracles import ToyGame, shipped_games

    inf = float("inf")
    return (*shipped_games(),
            ToyGame("coupled_2d",
                    lambda d, g: d[0] * d[0] * g[0] + d[1] * d[1] * g[1] + d[0] * g[1],
                    ((-1.0, 1.0), (-0.5, 2.0)), ((-2.0, 2.0), (-1.0, 1.0))),
            ToyGame("open_3d",
                    lambda d, g: (2.0 * d[0] * g[0] - d[0] * d[0] + d[1] * g[1]
                                  - 0.5 * d[1] * d[1] + d[2] * (g[0] - g[1]) - d[2] * d[2]),
                    ((-1.0, 1.0), (-0.5, inf), (-inf, 0.5)), ((-1.0, 1.0), (-1.0, inf))))


def _toy_starts(game, gen):
    """Starts on a box corner (a finite bound on each axis), at -0.0 and +0.0
    against the other sign, inside the box and outside it."""
    inf = float("inf")

    def corner(box, upper):
        # each axis's upper (or lower) bound, or its other one where that is infinite
        return [[b for b in axis if abs(b) < inf][-1 if upper else 0] for axis in box]

    def inside(box):
        return [gen.uniform(max(lo, -1.0), min(hi, 1.0)) for lo, hi in box]

    def outside(box):
        return [hi + 0.75 if hi < inf else lo - 0.75 for lo, hi in box]

    d_dim, g_dim = len(game.d_box), len(game.g_box)
    return ((corner(game.d_box, False), corner(game.g_box, True)),
            (corner(game.d_box, True), corner(game.g_box, True)),
            ([-0.0] * d_dim, [0.0] * g_dim), ([0.0] * d_dim, [-0.0] * g_dim),
            (inside(game.d_box), inside(game.g_box)),
            (outside(game.d_box), outside(game.g_box)))


def toy_sweep(seed: int) -> str:
    """``workloads.fingerprint`` of the toy estimators' outputs: per game, start
    and config, ``duality_gap`` at lambda 0, 0.1 and 1e6, a ``lambda_sweep``,
    ``unilateral_deviation`` and both spectrum probes.  An operation that
    raises is recorded by its error's name.  It uses only API the estimators
    have had since their float searches, so it can be run on older trees."""
    import numpy as np
    from proxgap.diffcore import Rng
    from proxgap.gapmetrics import ProximalConfig, ToyGameState, duality_gap, lambda_sweep
    from proxgap.probes import hessian_spectrum_probe, unilateral_deviation
    import workloads

    # small budgets, at rates that throw the iterates onto the bounds
    configs = (ProximalConfig(prox_steps=4, prox_lr=1.0, worst_iters=5, worst_lr=0.5),
               ProximalConfig(prox_steps=4, prox_lr=5.0, worst_iters=5, worst_lr=2.0))
    lams = (0.0, 0.1, 1e6)

    def report(gap):
        return [gap.v_dw, gap.v_gw_lambda, gap.v_gw_plain, gap.lam]

    ops = (
        lambda state, cfg, rng: [report(duality_gap(state, None, replace(cfg, lam=lam), rng))
                                 for lam in lams],
        lambda state, cfg, rng: [(lam, report(gap))
                                 for lam, gap in lambda_sweep(state, None, lams, cfg, rng)],
        lambda state, cfg, rng: list(unilateral_deviation(state, None, 6, cfg.worst_lr, 2, rng)
                                     .points),
        lambda state, cfg, rng: [(r.eigenvalues, r.converged) for r in (
            hessian_spectrum_probe(state, None, agent, 1, rng)
            for agent in ("generator", "discriminator"))],
    )
    gen = np.random.default_rng(seed)
    outputs = []
    for game in _toy_games():
        for d, g in _toy_starts(game, gen):
            state = ToyGameState(game, d, g)
            for cfg in configs:
                for op in ops:
                    try:
                        outputs.append(op(state, cfg, Rng(seed)))
                    except (ArithmeticError, ValueError, RuntimeError) as err:
                        # a named failure (older trees raise ProxDivergenceError
                        # as a RuntimeError) is recorded, not raised
                        outputs.append(type(err).__name__)
    return workloads.fingerprint(outputs)


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
