"""The benchmark's workloads.

Each workload makes its inputs from the seed, runs one round of operations
through the library entry points the CLI wraps, turns each operation's output
into a plain record, and checks the records with :mod:`checks`.  Every round
of a workload runs the same operations, so rounds can be compared bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import statistics
import time
from pathlib import Path

import numpy as np

import checks
from proxgap.diffcore import Rng
from proxgap.distributions import GaussianMixture, density
from proxgap.gapmetrics import ProximalConfig, ProxDivergenceError, ToyGameState, duality_gap
from proxgap.harness import (
    build_state,
    config_from_pairs,
    gap_cmd,
    lambda_sweep_cmd,
    load_checkpoint,
    probe_cmd,
    train,
    with_overrides,
)
from proxgap.objectives import FGAN_FAMILIES, eval_objective
from proxgap.oracles import GridSpec, grid_dg, grid_dg_lambda, numeric_fdiv, numeric_jsd, shipped_games

# NonFiniteError is a FloatingPointError; DeviationTrace rejects non-finite
# values with ValueError.
FAILURES = (FloatingPointError, ProxDivergenceError, ValueError)

_TAG_GAP = 6  # the harness's child-stream tags for gap estimation and probes
_TAG_PROBE = 7


class Round:
    """One pass over a workload's operations: wall time, output or error per operation."""

    def __init__(self):
        self.seconds = {}
        self.intervals = {}  # name -> (start, end) on perf_counter
        self.scaled = {}  # name -> seconds at the reference speed (pace.py)
        self.outputs = {}
        self.errors = {}

    def op(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except FAILURES as err:
            out = None
            self.errors[name] = f"{type(err).__name__}: {err}"
        end = time.perf_counter()
        self.seconds[name] = end - start
        self.intervals[name] = (start, end)
        self.outputs[name] = out
        return out

    def skip(self, names, reason):
        for name in names:
            self.seconds[name] = 0.0
            self.outputs[name] = None
            self.errors[name] = reason

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())

    @property
    def scaled_s(self) -> float:
        return sum(self.scaled.values())


def fingerprint(obj) -> str:
    """Digest of a record: floats by their exact bits, arrays by dtype, shape and bytes."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for key in sorted(x, key=str):
                h.update(repr(key).encode())
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for item in x:
                feed(item)
            h.update(b"]")
        elif isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, float):
            h.update(x.hex().encode())
        else:
            h.update(repr(x).encode())
        h.update(b";")

    feed(obj)
    return h.hexdigest()


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[float(tok) if tok else None for tok in row] for row in rows]


def train_record(run_dir) -> dict:
    """metrics.csv without wallclock_ms, the report's counters, every checkpoint's arrays."""
    run_dir = Path(run_dir)
    metrics = [row[:-1] for row in _csv_rows(run_dir / "metrics.csv")]
    with open(run_dir / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    ckpts = {}
    for path in sorted(run_dir.glob("checkpoint_*.npz")):
        with np.load(path) as blobs:
            ckpts[int(path.stem.split("_")[1])] = {k: blobs[k].copy() for k in blobs.files}
    return {"metrics": metrics,
            "report": {k: report[k] for k in ("d_updates", "g_updates", "failed_at_step")},
            "checkpoints": ckpts}


class _TrainWorkload:
    """Shared parts of the two workloads that run the monitored training loop."""

    def __init__(self, seed: int, overrides: dict):
        self.seed = seed
        self.cfg = config_from_pairs({"seed": str(seed),
                                      **{k: str(v) for k, v in overrides.items()}})
        self.pairs = self.cfg.pairs  # every key, defaults filled in
        self.updates = self.cfg.total_steps * (abs(self.cfg.update_ratio) + 1)

    def prepare(self):
        """What a session builds before its first operation."""
        return build_state(self.cfg, Rng(self.seed))

    def final_checkpoint(self, run_dir) -> Path:
        return Path(run_dir) / f"checkpoint_{self.cfg.total_steps:06d}.npz"

    def record(self, name, output, rdir):
        return train_record(output)

    def failures(self, name, rec) -> list:
        return checks.train_failures(rec) if name == "train" else []

    def check_final_value(self, ckpt_path):
        """Messages from comparing the program's eval_objective with the numpy
        forward at the last checkpoint, and the numpy value."""
        ckpt = load_checkpoint(ckpt_path)
        real = checks.eval_split(self.pairs)
        latent = checks.gap_latent(self.pairs, _TAG_GAP, ckpt.step, real.shape[0])
        v_np = checks.game_value(self.pairs, ckpt.state.theta_d.values,
                                 ckpt.state.theta_g.values, real, latent)
        return checks.check_eval_objective(eval_objective(ckpt.state, real, latent), v_np), v_np

    def train_phases(self, rounds):
        train_s = [r.scaled["train"] for r in rounds]
        return [("train_run_s", statistics.median(train_s), "s"),
                ("train_updates_per_s", statistics.median([self.updates / s for s in train_s]),
                 "updates/s")]


class DeskSession(_TrainWorkload):
    """A short monitored run of the desk config, then analysis of its last checkpoint."""

    name = "desk_session"
    LAMBDAS = (0.01, 0.1, 1.0, 1e6)
    DEVIATION = {"steps": 100, "lr": 1e-3, "eval_every": 20}
    OPS = ("train", "gap_cmd", "lambda_sweep_cmd", "probe_deviation")

    def __init__(self, seed: int):
        super().__init__(seed, {
            "train.steps": 40, "train.checkpoint_every": 40, "train.ratio": 2,
            "train.batch": 256, "optim.lr_d": "1e-3", "optim.lr_g": "3e-4",
            "disc.hidden": "32 32", "gen.hidden": "32 32", "latent.dim": 4,
            "distribution.means": "-1.2 0; 1.2 0",
            "distribution.variances": "0.09 0.09; 0.09 0.09",
            "prox.lambda": 0.1, "prox.steps": 20,
            "prox.worst_iters": 4, "prox.worst_lr": "5e-3", "prox.batch": 128,
        })

    def run_round(self, rnd: Round, rdir: Path):
        rnd.op("train", train, with_overrides(self.cfg, out=str(rdir / "run")))
        ckpt = self.final_checkpoint(rdir / "run")
        if not ckpt.exists():
            rnd.skip(self.OPS[1:], "no final checkpoint: train failed")
            return
        rnd.op("gap_cmd", gap_cmd, ckpt)
        rnd.op("lambda_sweep_cmd", lambda_sweep_cmd, ckpt, self.LAMBDAS, rdir / "sweep.csv")
        rnd.op("probe_deviation", probe_cmd, ckpt, "deviation", out=rdir / "deviation.csv",
               **self.DEVIATION)

    def record(self, name, output, rdir):
        if name == "train":
            return train_record(output)
        if name == "gap_cmd":
            return {k: getattr(output, k)
                    for k in ("v_dw", "v_gw_lambda", "dg_lambda", "v_gw_plain", "dg_plain", "lam")}
        return _csv_rows(output)  # sweep and deviation tables

    def check(self, recs: dict, rdir: Path) -> dict:
        step = self.cfg.total_steps
        ckpt = self.final_checkpoint(rdir / "run")
        out = {name: [] for name in recs}
        if "train" in recs:
            out["train"] += checks.check_train(self.pairs, recs["train"], 2)
            msgs, v0 = self.check_final_value(ckpt)
            out["train"] += msgs
            if "gap_cmd" in recs:
                out["gap_cmd"] += checks.check_gap(recs["gap_cmd"], v0)
        if "lambda_sweep_cmd" in recs and "gap_cmd" in recs:
            out["lambda_sweep_cmd"] += checks.check_sweep(
                recs["lambda_sweep_cmd"], self.LAMBDAS, recs["gap_cmd"], self.cfg.prox.lam)
        if "probe_deviation" in recs:
            real = checks.eval_split(self.pairs)
            latent = checks.gap_latent(self.pairs, _TAG_PROBE, step, real.shape[0])
            arrays = recs["train"]["checkpoints"][step] if "train" in recs else None
            if arrays is not None:
                v0 = checks.game_value(self.pairs, arrays["theta_d"], arrays["theta_g"],
                                       real, latent)
                out["probe_deviation"] += checks.check_deviation(recs["probe_deviation"], v0)
        return out

    def phases(self, rounds):
        return self.train_phases(rounds) + [
            ("gap_estimate_s", statistics.median([r.scaled["gap_cmd"] for r in rounds]), "s"),
            ("sweep_lambda_s", statistics.median([r.scaled["lambda_sweep_cmd"] / len(self.LAMBDAS)
                                        for r in rounds]), "s/lambda"),
            ("probe_s", statistics.median([r.scaled["probe_deviation"] for r in rounds]), "s"),
        ]


class CriticTrain(_TrainWorkload):
    """A monitored weight-clipped transport run on the 8-mode ring."""

    name = "critic_train"

    def __init__(self, seed: int):
        super().__init__(seed, {
            "distribution.kind": "ring", "ring.modes": 8,
            "objective.kind": "wgan_clip", "objective.clip": 0.01,
            "disc.hidden": "32 32", "disc.activation": "leaky_relu", "gen.hidden": "32 32",
            "train.ratio": 5, "train.steps": 200, "train.checkpoint_every": 100,
            "train.batch": 64, "prox.worst_iters": 2, "prox.steps": 5,
        })

    def run_round(self, rnd: Round, rdir: Path):
        rnd.op("train", train, with_overrides(self.cfg, out=str(rdir / "run")))

    def check(self, recs: dict, rdir: Path) -> dict:
        out = {name: [] for name in recs}
        if "train" in recs:
            out["train"] += checks.check_train(self.pairs, recs["train"], 5)
            out["train"] += self.check_final_value(self.final_checkpoint(rdir / "run"))[0]
        return out

    def phases(self, rounds):
        return self.train_phases(rounds)


class ToyOracles:
    """Toy-game gap estimates against grid oracles, and quadrature divergences."""

    name = "toy_oracles"
    CONFIGS_PER_GAME = 2
    PAIRS = 2
    GRID = GridSpec(401)
    CFG = ProximalConfig(lam=0.1, prox_steps=20, prox_lr=0.5, worst_iters=400,
                         worst_lr=0.02, batch_size=1)
    BOX = ((-8.0, 8.0), (-8.0, 8.0))
    RESOLUTION = 801

    def __init__(self, seed: int):
        gen = np.random.default_rng(seed)
        self.configs = []
        for game in shipped_games():
            for _ in range(self.CONFIGS_PER_GAME):
                d = gen.uniform(*game.d_box[0], 1)
                g = gen.uniform(*game.g_box[0], 1)
                self.configs.append((game, d, g, int(gen.integers(2 ** 32))))

        def gaussian():
            return ([1.0], gen.uniform(-1.5, 1.5, (1, 2)), gen.uniform(0.3, 1.0, (1, 2)))

        self.jsd_pairs, self.kl_pairs = [], []
        for _ in range(self.PAIRS):
            w = gen.uniform(0.3, 0.7)
            two_mode = ([w, 1.0 - w], gen.uniform(-1.5, 1.5, (2, 2)),
                        gen.uniform(0.3, 1.0, (2, 2)))
            self.jsd_pairs.append((two_mode, gaussian()))
            self.kl_pairs.append((gaussian(), gaussian()))

    def prepare(self):
        return [(GaussianMixture(*p), GaussianMixture(*q))
                for p, q in self.jsd_pairs + self.kl_pairs]

    def run_round(self, rnd: Round, rdir: Path):
        for i, (game, d, g, seed) in enumerate(self.configs):
            rnd.op(f"duality_gap/{i}", duality_gap, ToyGameState(game, d, g), None,
                   self.CFG, Rng(seed))
            rnd.op(f"grid_dg/{i}", grid_dg, game, (d, g), self.GRID)
            rnd.op(f"grid_dg_lambda/{i}", grid_dg_lambda, game, (d, g), self.CFG.lam, self.GRID)
        mixtures = self.prepare()
        for i in range(self.PAIRS):
            p, q = mixtures[i]
            rnd.op(f"numeric_jsd/{i}", numeric_jsd, lambda x, m=p: density(m, x),
                   lambda x, m=q: density(m, x), self.BOX, self.RESOLUTION)
        for i in range(self.PAIRS):
            p, q = mixtures[self.PAIRS + i]
            rnd.op(f"numeric_fdiv/{i}", numeric_fdiv, FGAN_FAMILIES["kl"],
                   lambda x, m=p: density(m, x), lambda x, m=q: density(m, x),
                   self.BOX, self.RESOLUTION)

    def record(self, name, output, rdir):
        if name.startswith("duality_gap/"):
            return {"dg_plain": output.dg_plain, "dg_lambda": output.dg_lambda}
        return float(output)

    def failures(self, name, rec) -> list:
        return []

    def check(self, recs: dict, rdir: Path) -> dict:
        out = {name: [] for name in recs}
        for i, (game, d, g, _) in enumerate(self.configs):
            est, plain, lam = (recs.get(f"{op}/{i}")
                               for op in ("duality_gap", "grid_dg", "grid_dg_lambda"))
            if None not in (est, plain, lam):
                out[f"duality_gap/{i}"] += checks.check_toy_estimate(est, plain, lam)
            if game.name == "bilinear":
                exact_plain, exact_lam = checks.bilinear_gaps(d[0], g[0], self.CFG.lam)
                if plain is not None:
                    out[f"grid_dg/{i}"] += checks.check_bilinear_grid(plain, exact_plain, "plain")
                if lam is not None:
                    out[f"grid_dg_lambda/{i}"] += checks.check_bilinear_grid(
                        lam, exact_lam, "proximal")
        for i, (p, q) in enumerate(self.jsd_pairs):
            if f"numeric_jsd/{i}" in recs:
                out[f"numeric_jsd/{i}"] += checks.check_jsd(
                    recs[f"numeric_jsd/{i}"], p, q, self.BOX, self.RESOLUTION)
        for i, (p, q) in enumerate(self.kl_pairs):
            if f"numeric_fdiv/{i}" in recs:
                out[f"numeric_fdiv/{i}"] += checks.check_kl(recs[f"numeric_fdiv/{i}"], p, q)
        return out

    def phases(self, rounds):
        n = len(self.configs)
        gaps = [sum(s for name, s in r.scaled.items()
                    if name.split("/")[0] in ("duality_gap", "grid_dg", "grid_dg_lambda"))
                for r in rounds]
        quad = [sum(s for name, s in r.scaled.items()
                    if name.split("/")[0] in ("numeric_jsd", "numeric_fdiv"))
                for r in rounds]
        return [("toy_gaps_per_s", statistics.median([n / s for s in gaps]), "configs/s"),
                ("quadrature_s", statistics.median(quad), "s")]


WORKLOADS = {w.name: w for w in (DeskSession, CriticTrain, ToyOracles)}
