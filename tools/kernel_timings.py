#!/usr/bin/env python3
"""Micro-timings of the fused MLP kernel (forward, backward and the leaky-ReLU
gate) and of the toy games' inner step.

    python3 tools/kernel_timings.py [--cycle K] [--passes P]

At 128, 768 and 3000 rows it builds a critic-shaped network (2 inputs,
hidden layers 32-32, one linear output) with leaky-ReLU and with tanh
activations, K distinct batches and K distinct parameter vectors, and times
``mlp_forward`` on a reused workspace, ``mlp_backward`` on its cache, and the
gate alone on the first layer's pre-activations: the kernel's ``_leaky_gate``
and, beside it, the former gate (filled with the slope, then set to 1.0 by
``np.putmask``).  Each call takes the next input of the cycle, so neither a
learned branch nor a cache warmed on one input flatters a variant.

For each shipped toy game it times one 20-step penalized inner ascent at
lambda 0.1 (``gapmetrics._prox_loop`` along ``_ToyOps.make_prox``'s
gradient, each step ``_ToyOps.ascend_d`` in floats) from K distinct
configurations, and reports it per inner step.

It prints one JSON line: per activation, row count and timed call, the
median and the best of P passes over the cycle, in microseconds per call,
and beside them ``workspace_bytes``, the bytes of the buffers the
workspace holds once its backward pass has run (``MlpWorkspace.nbytes``);
under ``toy``, per game, the same median and best in microseconds per
inner step.
It imports numpy and the library in ``src/`` only, and runs with one BLAS
thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from proxgap.diffcore import MlpWorkspace, NetworkSpec, Rng, init_network  # noqa: E402
from proxgap.diffcore.network import _leaky_gate, mlp_backward, mlp_forward  # noqa: E402
from proxgap.gapmetrics import ProximalConfig, ToyGameState, _last, _ops_for, _prox_loop  # noqa: E402
from proxgap.oracles import shipped_games  # noqa: E402

ROWS = (128, 768, 3000)
ACTIVATIONS = ("leaky_relu", "tanh")
TOY_CFG = ProximalConfig(lam=0.1, prox_steps=20)


def _former_gate(z, slope, mask, gate):
    np.greater(z, 0.0, out=mask)
    gate.fill(slope)
    np.putmask(gate, mask, 1.0)
    return gate


def _time(call, cycle: int, passes: int, prepare=None, units: int = 1) -> dict:
    """Median and best microseconds per call, or per one of the `units` a call
    does, over `passes` passes of the cycle; `prepare(k)`, when given, runs
    untimed before each `call(k)`."""
    if prepare is not None:
        prepare(0)
    call(0)  # maps the buffers
    per_call = []
    for _ in range(passes):
        total = 0.0
        for k in range(cycle):
            if prepare is not None:
                prepare(k)
            start = time.perf_counter()
            call(k)
            total += time.perf_counter() - start
        per_call.append(total / cycle / units * 1e6)
    return {"median_us": round(statistics.median(per_call), 2),
            "best_us": round(min(per_call), 2)}


def timings(cycle: int, passes: int) -> dict:
    out = {}
    for activation in ACTIVATIONS:
        spec = NetworkSpec(2, (32, 32), 1, activation=activation)
        (fi, fo, weight, bias), slope = spec.layers()[0], spec.leaky_slope
        for rows in ROWS:
            rng = Rng(rows)
            thetas = [init_network(spec, rng.child(k, 0)) for k in range(cycle)]
            batches = [rng.child(k, 1).normal((rows, spec.input_dim)) for k in range(cycle)]
            weights = [rng.child(k, 2).normal((rows, 1)) for k in range(cycle)]
            work = MlpWorkspace(spec)
            caches = [None] * cycle

            def fwd(k):
                caches[k] = mlp_forward(spec, thetas[k], batches[k], work)[1]

            def bwd(k):
                mlp_backward(spec, thetas[k], caches[k], weights[k], input_grad=False)

            # each backward runs on the cache of its own input's forward, run untimed
            entry = {"forward": _time(fwd, cycle, passes),
                     "backward": _time(bwd, cycle, passes, prepare=fwd),
                     "workspace_bytes": work.nbytes}
            if activation == "leaky_relu":
                pre = [b @ t.values[weight].reshape(fi, fo) + t.values[bias]
                       for b, t in zip(batches, thetas)]
                mask, gate = np.empty((rows, fo), dtype=bool), np.empty((rows, fo))
                entry["gate"] = _time(lambda k: _leaky_gate(pre[k], slope, mask, gate),
                                      cycle, passes)
                entry["former_gate"] = _time(lambda k: _former_gate(pre[k], slope, mask, gate),
                                             cycle, passes)
            out[f"{activation}/{rows}"] = entry
    return out


def toy_timings(cycle: int, passes: int) -> dict:
    """Per shipped game, microseconds per inner step of a TOY_CFG ascent, each
    call from the next of `cycle` configurations drawn inside the boxes."""
    out = {}
    for game in shipped_games():
        rng = Rng(len(game.name))
        loops = []
        for k in range(cycle):
            d, g = ([rng.child(k, axis).uniform(lo, hi, ()) for axis, (lo, hi) in enumerate(box)]
                    for box in (game.d_box, game.g_box))
            ops = _ops_for(ToyGameState(game, d, g), None, None)
            grad = ops.make_prox(ops.d0, ops.g0, None, TOY_CFG.lam)[0]
            loops.append((grad, ops.d0, ops))
        out[game.name] = _time(lambda k: _last(_prox_loop(*loops[k], TOY_CFG)), cycle, passes,
                               units=TOY_CFG.prox_steps)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cycle", type=int, default=16, help="distinct inputs per cycle")
    parser.add_argument("--passes", type=int, default=20, help="passes over the cycle")
    args = parser.parse_args(argv)
    if args.cycle < 1 or args.passes < 1:
        parser.error("--cycle and --passes must be positive")
    print(json.dumps({"cycle": args.cycle, "passes": args.passes,
                      "numpy": np.__version__, "timings": timings(args.cycle, args.passes),
                      "toy": toy_timings(args.cycle, args.passes)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
