"""Training loop with update-ratio control, periodic gap logging, sweeps,
correlation reporting, and checkpoint serialization."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
import zipfile
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .. import __version__
from ..diffcore import NonFiniteError, ParamVector, Rng, adam_init, adam_step, forward, init_network
from ..diffcore.optim import AdamState
from ..distributions import draw_minibatch, make_splits
from ..gapmetrics import (
    ESTIMATE_REVISION,
    GapReport,
    ProxDivergenceError,
    duality_gap,
    lambda_sweep,
)
from ..objectives import (
    GanBuffers,
    enforce_constraint,
    eval_objective,
    value_and_grad_d,
    value_and_grad_g,
)
from ..objectives import GanState
from ..oracles import hist_jsd
from ..probes import hessian_spectrum_probe, unilateral_deviation
from .config import ExperimentConfig, config_from_pairs, with_overrides

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


METRICS_COLUMNS = MetricsRow._fields

# child-stream tags: one fixed lane per consumer, so adding a consumer never
# shifts the draws of another
_TAG_INIT_D = 1
_TAG_INIT_G = 2
_TAG_DATA = 3
_TAG_TRAIN = 4
_TAG_EVAL = 5
_TAG_GAP = 6
_TAG_PROBE = 7


def _stream(cfg: ExperimentConfig, tag: int, *keys: int) -> Rng:
    """The run's child stream ``(seed, tag, *keys)``."""
    return Rng(cfg.seed).child(tag, *keys)


def rebuild_splits(cfg: ExperimentConfig):
    """The run's data splits: the one derivation, from the config alone."""
    return make_splits(cfg.dist, cfg.n_a, cfg.n_b, cfg.n_c, _stream(cfg, _TAG_DATA))


def build_state(cfg: ExperimentConfig, root: Rng):
    """Deterministically build the initial game state (networks drawn from
    ``root``) and the run's data splits (``rebuild_splits(cfg)``)."""
    theta_d = ParamVector(enforce_constraint(
        cfg.objective, init_network(cfg.d_spec, root.child(_TAG_INIT_D)).values))
    theta_g = init_network(cfg.g_spec, root.child(_TAG_INIT_G))
    state = GanState(cfg.d_spec, cfg.g_spec, theta_d, theta_g, cfg.objective)
    return state, rebuild_splits(cfg)


@dataclass
class _Player:
    """One side of the game in the training loop."""

    theta: np.ndarray  # its parameter array, replaced by each of its updates
    value_and_grad: Callable
    sign: float  # of its Adam step's gradient: -1 ascends V (D), +1 descends it (G)
    project: Callable  # (objective, array) -> array
    adam: AdamState
    loss: float  # sign * V on its last minibatch


def _unprojected(objective, params):
    return params


def _eval_latent(cfg: ExperimentConfig, splits) -> np.ndarray:
    """The fixed generator input paired with the evaluation split."""
    return _stream(cfg, _TAG_EVAL).normal((splits.s_c.shape[0], cfg.g_spec.input_dim))


def score_checkpoint(state: GanState, splits, cfg: ExperimentConfig, step: int):
    """``((dg_plain, dg_lambda, hist_jsd), report)`` of one checkpoint: the scores
    as ``metrics.csv`` logs them and the gap report behind them.

    The gaps draw from the stream ``(seed, _TAG_GAP, step)``, never the training
    stream, and are nan, with no report, when their estimate fails.  It always
    estimates afresh.
    """
    try:
        report = duality_gap(state, splits, cfg.prox, _stream(cfg, _TAG_GAP, step))
        gaps = report.dg_plain, report.dg_lambda
    except (NonFiniteError, ProxDivergenceError):
        report, gaps = None, (float("nan"), float("nan"))
    fake = forward(cfg.g_spec, state.theta_g, _eval_latent(cfg, splits))
    return (*gaps, hist_jsd(splits.s_c, fake, cfg.jsd_bins)), report


def train(cfg: ExperimentConfig) -> Path:
    """Run the alternating loop and return the run directory.

    Per cycle: |N| discriminator steps then one generator step for N > 0,
    one discriminator step then |N| generator steps for N < 0.  Either gap
    is logged at every checkpoint, whose sidecar keeps the three estimates; a
    non-finite loss or Adam moment marks the run failed at that step and
    preserves everything logged so far.
    """
    if not cfg.out_dir:
        raise ValueError("config needs an output directory (key 'out')")
    run_dir = Path(cfg.out_dir)
    run_dir.mkdir(parents=True, exist_ok=False)

    root = Rng(cfg.seed)
    state, splits = build_state(cfg, root)
    train_rng = root.child(_TAG_TRAIN)
    v0 = eval_objective(state, splits.s_c, _eval_latent(cfg, splits))
    disc = _Player(state.theta_d.values, value_and_grad_d, -1.0, enforce_constraint,
                   adam_init(len(state.theta_d), cfg.lr_d, cfg.beta1, cfg.beta2), -v0)
    gen = _Player(state.theta_g.values, value_and_grad_g, 1.0, _unprojected,
                  adam_init(len(state.theta_g), cfg.lr_g, cfg.beta1, cfg.beta2), v0)
    n = cfg.update_ratio
    cycle = [disc] * n + [gen] if n > 0 else [disc] + [gen] * -n

    t_start = time.monotonic()
    started = time.time()
    failed_at = None
    checkpoints = []
    metrics_path = run_dir / "metrics.csv"
    with open(metrics_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for step in range(cfg.total_steps + 1):
            try:
                for player in (cycle if step else ()):  # step 0 is the initial state
                    real, latent = draw_minibatch(splits.s_a, cfg.train_batch,
                                                  cfg.g_spec.input_dim, train_rng)
                    # the state gives the specs and the objective; the
                    # parameters are the players' own arrays
                    v, grad = player.value_and_grad(state, disc.theta, gen.theta,
                                                    real, latent, buffers)
                    params, player.adam = adam_step(player.theta, player.sign * grad,
                                                    player.adam)
                    player.theta = player.project(state.objective, params)
                    player.loss = player.sign * v
            except NonFiniteError:
                failed_at = step
                break
            if step % cfg.checkpoint_interval:
                continue
            # the one state of this checkpoint, scored and saved
            state = state.with_params(ParamVector(disc.theta), ParamVector(gen.theta))
            # fresh kernel buffers for the updates up to the next checkpoint
            # (step 0 is one); bound before the scoring, whose searches own
            # theirs, so the last updates' buffers add nothing to its peak
            buffers = GanBuffers(state)
            scores, gap = score_checkpoint(state, splits, cfg, step)
            wall = (time.monotonic() - t_start) * 1000.0
            writer.writerow(_cells((step, disc.loss, gen.loss, *scores, f"{wall:.3f}")))
            fh.flush()
            ckpt = Checkpoint(cfg, state, disc.adam, gen.adam, step, train_rng.state, gap)
            checkpoints.append(str(save_checkpoint(run_dir / f"checkpoint_{step:06d}", ckpt)))

    report = {
        "version": __version__,
        "numpy_version": np.__version__,
        "started_unix": started,
        "config": cfg.pairs,
        "epoch_equivalent_steps": max(1, cfg.n_a // cfg.train_batch),
        "d_updates": disc.adam.t,  # Adam counts the steps it took
        "g_updates": gen.adam.t,
        "failed_at_step": failed_at,
        "checkpoints": checkpoints,
        "metrics_csv": str(metrics_path),
    }
    with open(run_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return run_dir


# -- checkpoints -------------------------------------------------------------


def _checkpoint_arrays(cfg: ExperimentConfig) -> dict:
    """Name -> shape of every array a checkpoint holds, in the order it is written."""
    n_d, n_g = cfg.d_spec.param_count, cfg.g_spec.param_count
    return {"theta_d": (n_d,), "theta_g": (n_g,), "adam_d_m": (n_d,), "adam_d_v": (n_d,),
            "adam_g_m": (n_g,), "adam_g_v": (n_g,), "counters": (3,)}


@dataclass(frozen=True)
class Checkpoint:
    """A saved run point: the game, both players' Adam states, the training
    stream's cursor and, when there is one, the gap report estimated there."""

    cfg: ExperimentConfig
    state: GanState
    adam_d: AdamState
    adam_g: AdamState
    step: int
    rng_state: dict
    gap: GapReport | None = None


_GAP_ESTIMATES = ("v_dw", "v_gw_lambda", "v_gw_plain")


def _params_sha256(state: GanState) -> str:
    digest = hashlib.sha256(state.theta_d.values.tobytes())
    digest.update(state.theta_g.values.tobytes())
    return digest.hexdigest()


def _gap_budget(cfg: ExperimentConfig, step: int):
    """What a checkpoint's gap report is estimated under: the run's proximal
    config and the step's stream seed."""
    return cfg.prox, _stream(cfg, _TAG_GAP, step).seed


def _gap_block(ckpt: Checkpoint):
    """The sidecar's record of ``ckpt.gap``: its three estimates as exact hex
    floats, the estimates' revision and a digest of the parameters they were
    estimated at.  None without a report (a failed estimate)."""
    gap = ckpt.gap
    if gap is None:
        return None
    values = [float(getattr(gap, name)) for name in _GAP_ESTIMATES]
    if (gap.cfg, gap.seed) != _gap_budget(ckpt.cfg, ckpt.step) or not np.isfinite(values).all():
        raise ValueError("a checkpoint keeps only a finite gap report of its own config and "
                         "step's stream")
    return {"revision": ESTIMATE_REVISION, "params_sha256": _params_sha256(ckpt.state),
            **{name: value.hex() for name, value in zip(_GAP_ESTIMATES, values)}}


def _stored_gap(block, cfg: ExperimentConfig, step: int, state: GanState, where):
    """The gap report a sidecar's ``gap`` block records.

    None when there is no block or it was written under another
    ``ESTIMATE_REVISION``; ValueError when it is malformed, holds a non-finite
    estimate or was estimated at other parameters.
    """
    if block is None:
        return None
    if not isinstance(block, dict) or type(block.get("revision")) is not int:
        raise ValueError(f"checkpoint sidecar {where} has a gap block without an integer "
                         f"revision")
    if block["revision"] != ESTIMATE_REVISION:
        return None
    fields = ["revision", "params_sha256", *_GAP_ESTIMATES]
    if sorted(block) != sorted(fields):
        raise ValueError(f"checkpoint sidecar {where} has gap fields {sorted(block)!r}, "
                         f"expected {sorted(fields)!r}")
    try:
        v_dw, v_gw_lambda, v_gw_plain = (float.fromhex(block[name]) for name in _GAP_ESTIMATES)
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"checkpoint sidecar {where} holds a gap estimate that is not a "
                         f"hex float: {err}") from err
    if not np.isfinite([v_dw, v_gw_lambda, v_gw_plain]).all():
        raise ValueError(f"checkpoint sidecar {where} holds a non-finite gap estimate")
    if block["params_sha256"] != _params_sha256(state):
        raise ValueError(f"checkpoint sidecar {where} holds gap estimates of other parameters "
                         f"(params_sha256 does not match the arrays)")
    return GapReport(v_dw, v_gw_lambda, v_gw_plain, *_gap_budget(cfg, step))


def save_checkpoint(base, ckpt: Checkpoint) -> Path:
    """Write ``ckpt`` as ``base``.npz and its ``base``.json sidecar; returns the .npz path.

    The training stream's state and the gap report are checked as
    ``load_checkpoint`` checks them, before anything is written."""
    base = Path(base)
    _check_rng_state(ckpt.rng_state, base.with_suffix(".json"))
    sidecar = {
        "format": CHECKPOINT_FORMAT,
        "step": ckpt.step,
        "seed": ckpt.cfg.seed,
        "config": ckpt.cfg.pairs,
        "rng_state": ckpt.rng_state,
        "arrays": list(_checkpoint_arrays(ckpt.cfg)),
    }
    gap = _gap_block(ckpt)
    if gap is not None:
        sidecar["gap"] = gap
    npz = base.with_suffix(".npz")
    _write_atomically(npz, lambda fh: np.savez(
        fh,
        theta_d=ckpt.state.theta_d.values,
        theta_g=ckpt.state.theta_g.values,
        adam_d_m=ckpt.adam_d.m, adam_d_v=ckpt.adam_d.v,
        adam_g_m=ckpt.adam_g.m, adam_g_v=ckpt.adam_g.v,
        counters=np.array([ckpt.adam_d.t, ckpt.adam_g.t, ckpt.step], dtype=np.int64),
    ))
    _write_atomically(base.with_suffix(".json"),
                      lambda fh: fh.write(json.dumps(sidecar, indent=2).encode("utf-8")))
    return npz


def _write_atomically(path: Path, write) -> None:
    """Write `path` through `write(binary_file)` into a temp file in the same
    directory, then rename it into place: a reader sees the old file or the
    whole new one, never a partial write, and a failed write leaves no trace."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    sidecar_path = path.with_suffix(".json")
    if not path.exists() or not sidecar_path.exists():
        raise FileNotFoundError(f"missing checkpoint file or sidecar for {path}")
    try:
        with open(sidecar_path, "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ValueError(f"checkpoint sidecar {sidecar_path} is not UTF-8 JSON: {err}") from err
    if not isinstance(sidecar, dict):
        raise ValueError(f"checkpoint sidecar {sidecar_path} is not a JSON object")
    if sidecar.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format {sidecar.get('format')!r}")
    for key in ("config", "step", "rng_state"):
        if key not in sidecar:
            raise ValueError(f"checkpoint sidecar {sidecar_path} has no {key!r} key")
    try:
        cfg = config_from_pairs(sidecar["config"])
    except ValueError as err:  # a ConfigError, or GaussianMixture refusing the mixture
        raise ValueError(f"checkpoint sidecar {sidecar_path} has a bad config: {err}") from err
    shapes = _checkpoint_arrays(cfg)
    if sidecar.get("arrays") != list(shapes):
        raise ValueError(f"checkpoint sidecar {sidecar_path} lists arrays "
                         f"{sidecar.get('arrays')!r}, expected {list(shapes)!r}")
    try:
        with np.load(path) as blobs:
            arrays = {name: blobs[name] for name in shapes if name in blobs.files}
    except (OSError, EOFError, ValueError, TypeError, NotImplementedError, zipfile.BadZipFile,
            zlib.error) as err:  # an empty, cut, corrupt or non-zip file
        raise ValueError(f"checkpoint {path} cannot be read: {err}") from err
    for name, shape in shapes.items():
        if name not in arrays:
            raise ValueError(f"checkpoint {path} has no array {name!r} (expected shape {shape})")
        if arrays[name].shape != shape:
            raise ValueError(f"checkpoint array {name!r} has shape {arrays[name].shape}, "
                             f"expected {shape}")
    state = GanState(cfg.d_spec, cfg.g_spec, ParamVector(arrays["theta_d"]),
                     ParamVector(arrays["theta_g"]), cfg.objective)
    counters = arrays["counters"]
    adams = []
    for player, t, lr in (("d", counters[0], cfg.lr_d), ("g", counters[1], cfg.lr_g)):
        try:
            adams.append(AdamState(arrays[f"adam_{player}_m"], arrays[f"adam_{player}_v"],
                                   int(t), lr, cfg.beta1, cfg.beta2))
        except ValueError as err:
            raise ValueError(f"checkpoint {path} holds a bad adam_{player} state: {err}") from err
    step = sidecar["step"]
    if type(step) is not int:
        raise ValueError(f"checkpoint sidecar {sidecar_path} has a step {step!r} that is not "
                         f"an integer")
    _check_rng_state(sidecar["rng_state"], sidecar_path)
    if step != counters[2]:
        raise ValueError(f"checkpoint sidecar {sidecar_path} is of step {step}, its arrays "
                         f"{path} of step {counters[2]}")
    gap = _stored_gap(sidecar.get("gap"), cfg, step, state, sidecar_path)
    return Checkpoint(cfg, state, *adams, step, sidecar["rng_state"], gap)


def _is_uint(value, bits: int) -> bool:
    return type(value) is int and 0 <= value < 2 ** bits


def _check_rng_state(state, where) -> None:
    """ValueError unless ``state`` is a PCG64 bit-generator state, as
    ``Rng.state`` gives it: the two 128-bit words and the cached 32-bit draw."""
    inner = state.get("state") if isinstance(state, dict) else None
    if not (isinstance(inner, dict)
            and sorted(state) == ["bit_generator", "has_uint32", "state", "uinteger"]
            and state["bit_generator"] == "PCG64" and sorted(inner) == ["inc", "state"]
            and _is_uint(inner["state"], 128) and _is_uint(inner["inc"], 128)
            and _is_uint(state["has_uint32"], 1) and _is_uint(state["uinteger"], 32)):
        raise ValueError(f"checkpoint sidecar {where} has an rng_state that is not a PCG64 "
                         f"state: {state!r}")


# -- gap, sweeps, probes -----------------------------------------------------


def _open_checkpoint(checkpoint_path, tag: int):
    """A stored checkpoint, its run's splits and its step's child stream ``tag``."""
    ckpt = load_checkpoint(checkpoint_path)
    return ckpt, rebuild_splits(ckpt.cfg), _stream(ckpt.cfg, tag, ckpt.step)


def gap_cmd(checkpoint_path, lam: float | None = None) -> GapReport:
    """Both duality gaps at a stored checkpoint, on the run's own splits.

    The estimates the checkpoint's sidecar keeps are reused: at the run's
    lambda nothing is estimated again, at another only ``v_gw_lambda``.
    """
    ckpt, splits, rng = _open_checkpoint(checkpoint_path, _TAG_GAP)
    prox = ckpt.cfg.prox if lam is None else replace(ckpt.cfg.prox, lam=lam)
    return duality_gap(ckpt.state, splits, prox, rng, ckpt.gap)


def lambda_sweep_cmd(checkpoint_path, lambdas, out_csv=None) -> Path:
    """Gap estimates across a lambda grid at one checkpoint, written as CSV.

    Like ``gap_cmd``, it reuses the estimates the checkpoint's sidecar keeps.
    """
    ckpt, splits, rng = _open_checkpoint(checkpoint_path, _TAG_GAP)
    rows = lambda_sweep(ckpt.state, splits, lambdas, ckpt.cfg.prox, rng, ckpt.gap)
    out = Path(out_csv) if out_csv else Path(checkpoint_path).with_name(
        Path(checkpoint_path).stem + "_lambda_sweep.csv")
    return _write_table(out, ("lambda", "v_dw", "v_gw_lambda", "dg_lambda", "dg_plain"),
                        [(lam, r.v_dw, r.v_gw_lambda, r.dg_lambda, r.dg_plain) for lam, r in rows])


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
    return _write_table(out_dir / "ratio_sweep.csv", ("n", "dg_lambda", "hist_jsd", "status"),
                        rows)


def probe_cmd(checkpoint_path, kind: str, out=None, k: int = 5, steps: int = 200,
              lr: float = 1e-3, eval_every: int = 20, agent: str = "generator"):
    """Run a deviation or spectrum probe at a checkpoint and write the artifact."""
    ckpt, splits, rng = _open_checkpoint(checkpoint_path, _TAG_PROBE)
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
                                     bins=ckpt.cfg.jsd_bins)
        out = Path(out) if out else base.with_name(base.stem + "_deviation.csv")
        return _write_table(out, ("step", "value", "divergence"), trace.points)
    raise ValueError(f"unknown probe kind {kind!r}; expected 'deviation' or 'spectrum'")


def _cells(row) -> list:
    """A CSV row's cells: a float as ``.12g``, None as an empty cell, any other
    value as csv writes it."""
    return ["" if x is None else f"{x:.12g}" if isinstance(x, float) else x for x in row]


def _write_table(path: Path, header, rows) -> Path:
    """Write a one-shot CSV table at ``path``: ``header``, then ``rows`` as ``_cells``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(_cells, rows))
    return path


# -- metrics and correlation --------------------------------------------------


def read_metrics(path):
    """Rows of a metrics CSV as MetricsRow tuples (schema-checked); a
    ValueError names the file and line of the first malformed one."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != METRICS_COLUMNS:
            raise ValueError(f"{path} line 1: unexpected metrics schema {header}")
        rows = []
        for row in reader:
            try:
                if len(row) != len(METRICS_COLUMNS):
                    raise ValueError(f"{len(row)} fields, expected {len(METRICS_COLUMNS)}")
                rows.append(MetricsRow(*(float(tok) for tok in row)))
            except ValueError as err:
                raise ValueError(f"{path} line {reader.line_num}: {err}") from err
        return rows


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
        for key in METRICS_COLUMNS[:-1]:  # all but wallclock_ms
            va, vb = getattr(ra, key), getattr(rb, key)
            # nan matches only nan; abs(nan - x) > tol alone is never true
            if np.isnan(va) != np.isnan(vb) or abs(va - vb) > tol:
                return False
    return True
