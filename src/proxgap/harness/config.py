"""Experiment configuration: a flat key-value document with dotted sections.

Every key has a default tuned for desk scale; the penalized-estimation keys
default to the published protocol (lambda 0.1, 20 inner steps, clip 0.01).
The same flat representation round-trips through config files, checkpoint
sidecars and the report echo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diffcore import NetworkSpec
from ..distributions import GaussianMixture, LatentSpec, ring_mixture
from ..gapmetrics import ProximalConfig
from ..objectives import FGAN_FAMILIES, Classic, FGan, ObjectiveKind, WassersteinClip

DEFAULTS = {
    "seed": "7",
    "out": "",
    "distribution.kind": "gmm",
    "distribution.weights": "0.5 0.5",
    "distribution.means": "-1.5 0; 1.5 0",
    "distribution.variances": "0.0625 0.0625; 0.0625 0.0625",
    "ring.modes": "8",
    "ring.radius": "2.0",
    "ring.sigma": "0.05",
    "latent.dim": "2",
    "disc.hidden": "16 16",
    "disc.activation": "tanh",
    "disc.leaky_slope": "0.2",
    "gen.hidden": "16 16",
    "gen.activation": "tanh",
    "gen.leaky_slope": "0.2",
    "objective.kind": "classic",
    "objective.clip": "0.01",
    "objective.family": "kl",
    "optim.lr_d": "2e-3",
    "optim.lr_g": "1e-3",
    "optim.beta1": "0.5",
    "optim.beta2": "0.999",
    "train.ratio": "1",
    "train.steps": "2000",
    "train.checkpoint_every": "",
    "train.batch": "128",
    "splits.train": "4000",
    "splits.search": "500",
    "splits.eval": "500",
    "prox.lambda": "0.1",
    "prox.steps": "20",
    "prox.lr": "0.05",
    "prox.worst_iters": "40",
    "prox.worst_lr": "5e-3",
    "prox.sobolev_h": "1e-3",
    "prox.batch": "128",
    "jsd.bins": "16",
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    dist: GaussianMixture
    latent: LatentSpec
    d_spec: NetworkSpec
    g_spec: NetworkSpec
    objective: ObjectiveKind
    lr_d: float
    lr_g: float
    beta1: float
    beta2: float
    update_ratio: int
    total_steps: int
    checkpoint_interval: int
    train_batch: int
    prox: ProximalConfig
    n_a: int
    n_b: int
    n_c: int
    jsd_bins: int
    seed: int
    out_dir: str
    pairs: dict  # canonical flat form, for echoes and sidecars

    def __post_init__(self):
        if self.update_ratio == 0:
            raise ConfigError("update ratio must be nonzero")
        for name in ("lr_d", "lr_g"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"optim.{name} must lie in [0, 1)")
        if self.total_steps < 0 or self.train_batch < 1:
            raise ConfigError("steps must be nonnegative and batch positive")
        if self.checkpoint_interval < 1:
            raise ConfigError("checkpoint interval must be positive")
        if self.total_steps > 0 and self.total_steps % self.checkpoint_interval != 0:
            raise ConfigError("checkpoint interval must divide total steps")


def parse_pairs(text: str) -> dict:
    """Raw `key = value` lines; '#' starts a comment, blank lines are skipped."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def _floats(s: str) -> list:
    return [float(tok) for tok in s.replace(",", " ").split()]


def _ints(s: str) -> tuple:
    return tuple(int(tok) for tok in s.replace(",", " ").split())


def _rows(s: str) -> np.ndarray:
    return np.array([_floats(part) for part in s.split(";") if part.strip()])


def _finite(pairs: dict, key: str, parse=float):
    """``pairs[key]`` read by ``parse``; every number in it must be finite."""
    value = parse(pairs[key])
    if not np.isfinite(value).all():
        raise ConfigError(f"{key} must be finite, got {pairs[key]!r}")
    return value


def config_from_pairs(pairs: dict) -> ExperimentConfig:
    unknown = set(pairs) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(DEFAULTS)
    merged.update(pairs)

    kind = merged["distribution.kind"]
    if kind == "gmm":
        dist = GaussianMixture(_finite(merged, "distribution.weights", _floats),
                               _finite(merged, "distribution.means", _rows),
                               _finite(merged, "distribution.variances", _rows))
    elif kind == "ring":
        dist = ring_mixture(int(merged["ring.modes"]), _finite(merged, "ring.radius"),
                            _finite(merged, "ring.sigma"))
    else:
        raise ConfigError(f"unknown distribution kind {kind!r}")

    obj_kind = merged["objective.kind"]
    if obj_kind == "classic":
        objective: ObjectiveKind = Classic()
    elif obj_kind == "wgan_clip":
        objective = WassersteinClip(_finite(merged, "objective.clip"))
    elif obj_kind == "fgan":
        family = merged["objective.family"]
        if family not in FGAN_FAMILIES:
            raise ConfigError(f"unknown f-divergence family {family!r}")
        objective = FGan(FGAN_FAMILIES[family])
    else:
        raise ConfigError(f"unknown objective kind {obj_kind!r}")

    latent = LatentSpec(int(merged["latent.dim"]))
    d_spec = NetworkSpec(dist.dimension, _ints(merged["disc.hidden"]), 1,
                         activation=merged["disc.activation"],
                         output_head="sigmoid" if obj_kind == "classic" else "linear",
                         leaky_slope=_finite(merged, "disc.leaky_slope"))
    g_spec = NetworkSpec(latent.dim, _ints(merged["gen.hidden"]), dist.dimension,
                         activation=merged["gen.activation"],
                         leaky_slope=_finite(merged, "gen.leaky_slope"))

    total_steps = int(merged["train.steps"])
    interval_raw = merged["train.checkpoint_every"].strip()
    if interval_raw:
        interval = int(interval_raw)
    elif total_steps >= 50 and total_steps % 50 == 0:
        interval = total_steps // 50  # default cadence: every 2% of the run
    else:
        interval = 1
    merged["train.checkpoint_every"] = str(interval)

    prox = ProximalConfig(
        lam=_finite(merged, "prox.lambda"),
        prox_steps=int(merged["prox.steps"]),
        prox_lr=_finite(merged, "prox.lr"),
        worst_iters=int(merged["prox.worst_iters"]),
        worst_lr=_finite(merged, "prox.worst_lr"),
        sobolev_h=_finite(merged, "prox.sobolev_h"),
        batch_size=int(merged["prox.batch"]),
    )

    return ExperimentConfig(
        dist=dist,
        latent=latent,
        d_spec=d_spec,
        g_spec=g_spec,
        objective=objective,
        lr_d=_finite(merged, "optim.lr_d"),
        lr_g=_finite(merged, "optim.lr_g"),
        beta1=_finite(merged, "optim.beta1"),
        beta2=_finite(merged, "optim.beta2"),
        update_ratio=int(merged["train.ratio"]),
        total_steps=total_steps,
        checkpoint_interval=interval,
        train_batch=int(merged["train.batch"]),
        prox=prox,
        n_a=int(merged["splits.train"]),
        n_b=int(merged["splits.search"]),
        n_c=int(merged["splits.eval"]),
        jsd_bins=int(merged["jsd.bins"]),
        seed=int(merged["seed"]),
        out_dir=merged["out"],
        pairs=merged,
    )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_pairs(parse_pairs(fh.read()))


def config_from_text(text: str) -> ExperimentConfig:
    return config_from_pairs(parse_pairs(text))


def with_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Rebuild a config with some flat keys replaced (e.g. seed, out, train.ratio)."""
    pairs = dict(cfg.pairs)
    for key, value in overrides.items():
        pairs[key] = str(value)
    return config_from_pairs(pairs)
