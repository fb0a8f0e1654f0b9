"""Training loop with update-ratio control, periodic gap logging, sweeps,
correlation reporting, and checkpoint serialization."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .. import __version__
from ..diffcore import NonFiniteError, Rng, adam_init, adam_step, forward, init_network
from ..distributions import make_splits
from ..gapmetrics import GapReport, ProxDivergenceError, duality_gap, lambda_sweep
from ..objectives import (
    enforce_constraint,
    eval_objective,
    value_and_grad_d,
    value_and_grad_g,
)
from ..objectives import GanState
from ..oracles import jsd_from_samples
from ..probes import hessian_spectrum_probe, unilateral_deviation
from .config import ExperimentConfig, config_from_pairs, with_overrides

METRICS_COLUMNS = ("step", "v_d", "v_g", "dg_plain", "dg_lambda", "hist_jsd",
                   "wallclock_ms")
CHECKPOINT_FORMAT = "proxgap-checkpoint-v1"


class MetricsRow(NamedTuple):
    """One checkpoint line of metrics.csv; gap fields are nan when estimation failed."""

    step: float
    v_d: float
    v_g: float
    dg_plain: float
    dg_lambda: float
    hist_jsd: float
    wallclock_ms: float

# child-stream tags: one fixed lane per consumer, so adding a consumer never
# shifts the draws of another
_TAG_INIT_D = 1
_TAG_INIT_G = 2
_TAG_DATA = 3
_TAG_TRAIN = 4
_TAG_EVAL = 5
_TAG_GAP = 6
_TAG_PROBE = 7


def build_state(cfg: ExperimentConfig, root: Rng):
    """Deterministically build the initial game state and the data splits."""
    theta_d = enforce_constraint(cfg.objective,
                                 init_network(cfg.d_spec, root.child(_TAG_INIT_D)))
    theta_g = init_network(cfg.g_spec, root.child(_TAG_INIT_G))
    state = GanState(cfg.d_spec, cfg.g_spec, theta_d, theta_g, cfg.objective)
    splits = make_splits(cfg.dist, cfg.n_a, cfg.n_b, cfg.n_c, root.child(_TAG_DATA))
    return state, splits


def train(cfg: ExperimentConfig) -> Path:
    """Run the alternating loop and return the run directory.

    Per cycle: |N| discriminator steps then one generator step for N > 0,
    one discriminator step then |N| generator steps for N < 0.  Either gap
    is logged at every checkpoint; a non-finite loss marks the run failed at
    that step and preserves everything logged so far.
    """
    if not cfg.out_dir:
        raise ValueError("config needs an output directory (key 'out')")
    run_dir = Path(cfg.out_dir)
    run_dir.mkdir(parents=True, exist_ok=False)

    root = Rng(cfg.seed)
    state, splits = build_state(cfg, root)
    adam_d = adam_init(len(state.theta_d), cfg.lr_d, cfg.beta1, cfg.beta2)
    adam_g = adam_init(len(state.theta_g), cfg.lr_g, cfg.beta1, cfg.beta2)
    train_rng = root.child(_TAG_TRAIN)
    eval_latent = root.child(_TAG_EVAL).normal((splits.s_c.shape[0], cfg.latent.dim))
    jsd_box = [(splits.s_c[:, j].min() - 1.0, splits.s_c[:, j].max() + 1.0)
               for j in range(splits.s_c.shape[1])]

    t_start = time.monotonic()
    started = time.time()
    d_updates = g_updates = 0
    failed_at = None
    checkpoints = []
    last_d_loss = last_g_loss = None

    def d_step():
        nonlocal state, adam_d, last_d_loss, d_updates
        idx = train_rng.integers(0, cfg.n_a, cfg.train_batch)
        latent = train_rng.normal((cfg.train_batch, cfg.latent.dim))
        v, grad = value_and_grad_d(state, state.theta_d, state.theta_g,
                                   splits.s_a[idx], latent)
        new_d, adam_d = adam_step(state.theta_d, -grad, adam_d)  # ascend V
        state = state.with_params(theta_d=enforce_constraint(state.objective, new_d))
        last_d_loss = -v
        d_updates += 1

    def g_step():
        nonlocal state, adam_g, last_g_loss, g_updates
        idx = train_rng.integers(0, cfg.n_a, cfg.train_batch)
        latent = train_rng.normal((cfg.train_batch, cfg.latent.dim))
        v, grad = value_and_grad_g(state, state.theta_d, state.theta_g,
                                   splits.s_a[idx], latent)
        new_g, adam_g = adam_step(state.theta_g, grad, adam_g)  # descend V
        state = state.with_params(theta_g=new_g)
        last_g_loss = v
        g_updates += 1

    metrics_path = run_dir / "metrics.csv"
    with open(metrics_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)

        def checkpoint(step: int):
            if last_d_loss is None:
                v = eval_objective(state, splits.s_c, eval_latent)
                v_d, v_g = -v, v
            else:
                v_d, v_g = last_d_loss, last_g_loss
            try:
                report = duality_gap(state, splits, cfg.prox, root.child(_TAG_GAP, step))
                dg_plain, dg_lambda = report.dg_plain, report.dg_lambda
            except (NonFiniteError, ProxDivergenceError):
                dg_plain = dg_lambda = float("nan")
            fake = forward(cfg.g_spec, state.theta_g, eval_latent)
            hist = jsd_from_samples(splits.s_c, fake, bins=cfg.jsd_bins, box=jsd_box)
            wall = (time.monotonic() - t_start) * 1000.0
            writer.writerow([step, f"{v_d:.12g}", f"{v_g:.12g}", f"{dg_plain:.12g}",
                             f"{dg_lambda:.12g}", f"{hist:.12g}", f"{wall:.3f}"])
            fh.flush()
            path = save_checkpoint(run_dir / f"checkpoint_{step:06d}", cfg, state,
                                   adam_d, adam_g, step, train_rng.state)
            checkpoints.append(str(path))

        checkpoint(0)
        for step in range(1, cfg.total_steps + 1):
            try:
                if cfg.update_ratio > 0:
                    for _ in range(cfg.update_ratio):
                        d_step()
                    g_step()
                else:
                    d_step()
                    for _ in range(-cfg.update_ratio):
                        g_step()
            except NonFiniteError:
                failed_at = step
                break
            if step % cfg.checkpoint_interval == 0:
                checkpoint(step)

    report = {
        "version": __version__,
        "numpy_version": np.__version__,
        "started_unix": started,
        "config": cfg.pairs,
        "epoch_equivalent_steps": max(1, cfg.n_a // cfg.train_batch),
        "d_updates": d_updates,
        "g_updates": g_updates,
        "failed_at_step": failed_at,
        "checkpoints": checkpoints,
        "metrics_csv": str(metrics_path),
    }
    with open(run_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return run_dir


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(base, cfg: ExperimentConfig, state: GanState, adam_d, adam_g,
                    step: int, rng_state: dict) -> Path:
    base = Path(base)
    np.savez(
        base.with_suffix(".npz"),
        theta_d=state.theta_d.values,
        theta_g=state.theta_g.values,
        adam_d_m=adam_d.m, adam_d_v=adam_d.v,
        adam_g_m=adam_g.m, adam_g_v=adam_g.v,
        counters=np.array([adam_d.t, adam_g.t, step], dtype=np.int64),
    )
    sidecar = {
        "format": CHECKPOINT_FORMAT,
        "step": step,
        "seed": cfg.seed,
        "config": cfg.pairs,
        "rng_state": _jsonable(rng_state),
        "arrays": ["theta_d", "theta_g", "adam_d_m", "adam_d_v",
                   "adam_g_m", "adam_g_v", "counters"],
    }
    with open(base.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
    return base.with_suffix(".npz")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


@dataclass(frozen=True)
class Checkpoint:
    cfg: ExperimentConfig
    state: GanState
    step: int
    adam_d_m: np.ndarray
    adam_d_v: np.ndarray
    adam_g_m: np.ndarray
    adam_g_v: np.ndarray
    adam_d_t: int
    adam_g_t: int
    rng_state: dict


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    sidecar_path = path.with_suffix(".json")
    if not path.exists() or not sidecar_path.exists():
        raise FileNotFoundError(f"missing checkpoint file or sidecar for {path}")
    with open(sidecar_path, "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    if sidecar.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format {sidecar.get('format')!r}")
    cfg = config_from_pairs(sidecar["config"])
    blobs = np.load(path)
    theta_d = state_params(cfg.d_spec, blobs["theta_d"])
    theta_g = state_params(cfg.g_spec, blobs["theta_g"])
    state = GanState(cfg.d_spec, cfg.g_spec, theta_d, theta_g, cfg.objective)
    counters = blobs["counters"]
    return Checkpoint(cfg, state, int(sidecar["step"]),
                      blobs["adam_d_m"], blobs["adam_d_v"],
                      blobs["adam_g_m"], blobs["adam_g_v"],
                      int(counters[0]), int(counters[1]), sidecar["rng_state"])


def state_params(spec, values):
    from ..diffcore import ParamVector
    return ParamVector(values, spec.layout())


def rebuild_splits(cfg: ExperimentConfig):
    return make_splits(cfg.dist, cfg.n_a, cfg.n_b, cfg.n_c,
                       Rng(cfg.seed).child(_TAG_DATA))


# -- gap, sweeps, probes -----------------------------------------------------


def gap_cmd(checkpoint_path, lam: float | None = None) -> GapReport:
    """Both duality gaps at a stored checkpoint, on the run's own splits."""
    ckpt = load_checkpoint(checkpoint_path)
    cfg = ckpt.cfg
    prox = cfg.prox if lam is None else replace(cfg.prox, lam=lam)
    splits = rebuild_splits(cfg)
    return duality_gap(ckpt.state, splits, prox,
                       Rng(cfg.seed).child(_TAG_GAP, ckpt.step))


def lambda_sweep_cmd(checkpoint_path, lambdas, out_csv=None) -> Path:
    """Gap estimates across a lambda grid at one checkpoint, written as CSV."""
    lams = [float(x) for x in lambdas]
    if not lams:
        raise ValueError("lambda list must be non-empty")
    ckpt = load_checkpoint(checkpoint_path)
    cfg = ckpt.cfg
    splits = rebuild_splits(cfg)
    rows = lambda_sweep(ckpt.state, splits, lams, cfg.prox,
                        Rng(cfg.seed).child(_TAG_GAP, ckpt.step))
    out = Path(out_csv) if out_csv else Path(checkpoint_path).with_name(
        Path(checkpoint_path).stem + "_lambda_sweep.csv")
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "v_dw", "v_gw_lambda", "dg_lambda", "dg_plain"])
        for lam, report in rows:
            writer.writerow([f"{lam:.12g}", f"{report.v_dw:.12g}",
                             f"{report.v_gw_lambda:.12g}",
                             f"{report.dg_lambda:.12g}", f"{report.dg_plain:.12g}"])
    return out


def ratio_sweep_cmd(cfg: ExperimentConfig, ratios, out_dir) -> Path:
    """Independent seeded runs per update ratio; failures are recorded, not fatal."""
    ratios = [int(n) for n in ratios]
    if any(n == 0 for n in ratios):
        raise ValueError("update ratios must be nonzero")
    if not ratios:
        raise ValueError("ratio list must be non-empty")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in sorted(ratios):
        run_cfg = with_overrides(cfg, **{"train.ratio": n,
                                         "out": str(out_dir / f"ratio_{n:+d}")})
        try:
            run_dir = train(run_cfg)
            last = read_metrics(run_dir / "metrics.csv")[-1]
            with open(run_dir / "report.json", "r", encoding="utf-8") as fh:
                failed_at = json.load(fh)["failed_at_step"]
            status = "ok" if failed_at is None else f"failed at step {failed_at}"
            rows.append((n, last.dg_lambda, last.hist_jsd, status))
        except (NonFiniteError, ProxDivergenceError, ValueError, OSError) as err:
            rows.append((n, float("nan"), float("nan"), f"failed: {err}"))
    out = out_dir / "ratio_sweep.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "dg_lambda", "hist_jsd", "status"])
        for n, dg_lam, hist, status in rows:
            writer.writerow([n, f"{dg_lam:.12g}", f"{hist:.12g}", status])
    return out


def probe_cmd(checkpoint_path, kind: str, out=None, k: int = 5, steps: int = 200,
              lr: float = 1e-3, eval_every: int = 20, agent: str = "generator"):
    """Run a deviation or spectrum probe at a checkpoint and write the artifact."""
    ckpt = load_checkpoint(checkpoint_path)
    cfg = ckpt.cfg
    splits = rebuild_splits(cfg)
    rng = Rng(cfg.seed).child(_TAG_PROBE, ckpt.step)
    base = Path(checkpoint_path)
    if kind == "spectrum":
        report = hessian_spectrum_probe(ckpt.state, splits, agent, k, rng)
        out = Path(out) if out else base.with_name(base.stem + "_spectrum.json")
        payload = {
            "agent": report.agent,
            "eigenvalues": list(report.eigenvalues),
            "nash_consistent": report.nash_consistent,
            "tolerance": report.tolerance,
            "converged": list(report.converged),
        }
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        return out
    if kind == "deviation":
        trace = unilateral_deviation(ckpt.state, splits, steps, lr, eval_every, rng,
                                     bins=cfg.jsd_bins)
        out = Path(out) if out else base.with_name(base.stem + "_deviation.csv")
        with open(out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "value", "divergence"])
            for p in trace.points:
                writer.writerow([p.step, f"{p.value:.12g}",
                                 "" if p.divergence is None else f"{p.divergence:.12g}"])
        return out
    raise ValueError(f"unknown probe kind {kind!r}; expected 'deviation' or 'spectrum'")


# -- metrics and correlation --------------------------------------------------


def read_metrics(path):
    """Rows of a metrics CSV as MetricsRow tuples (schema-checked)."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != METRICS_COLUMNS:
            raise ValueError(f"unexpected metrics schema {header}")
        return [MetricsRow(*(float(tok) for tok in row)) for row in reader]


def pearson_r(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 3:
        raise ValueError("need at least 3 paired values")
    sx, sy = x.std(), y.std()
    if sx == 0 or sy == 0:
        raise ValueError("correlation undefined for a constant series")
    return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))


@dataclass(frozen=True)
class CorrelationReport:
    r_dg_lambda: float
    r_dg_plain: float
    rows_used: int
    rows_excluded: int


def correlate(metrics_csv) -> CorrelationReport:
    """Pearson r between each gap series and the histogram divergence series."""
    rows = read_metrics(metrics_csv)
    valid = [r for r in rows
             if np.isfinite(r.dg_plain) and np.isfinite(r.dg_lambda)
             and np.isfinite(r.hist_jsd)]
    excluded = len(rows) - len(valid)
    if len(valid) < 3:
        raise ValueError("need at least 3 checkpoints with finite values")
    jsd = [r.hist_jsd for r in valid]
    return CorrelationReport(
        r_dg_lambda=pearson_r([r.dg_lambda for r in valid], jsd),
        r_dg_plain=pearson_r([r.dg_plain for r in valid], jsd),
        rows_used=len(valid),
        rows_excluded=excluded,
    )


def compare_metrics_csv(path_a, path_b, tol: float = 1e-9) -> bool:
    """Cell-by-cell equality of two metrics files, ignoring the wallclock column."""
    rows_a = read_metrics(path_a)
    rows_b = read_metrics(path_b)
    if len(rows_a) != len(rows_b):
        return False
    for ra, rb in zip(rows_a, rows_b):
        for key in METRICS_COLUMNS:
            if key == "wallclock_ms":
                continue
            va, vb = getattr(ra, key), getattr(rb, key)
            if np.isnan(va) and np.isnan(vb):
                continue
            if abs(va - vb) > tol:
                return False
    return True
