"""Experiment configuration: a flat key-value document with dotted sections.

Every key has a default tuned for desk scale; the penalized-estimation keys
default to the published protocol (lambda 0.1, 20 inner steps, clip 0.01).
The same flat representation round-trips through config files, checkpoint
sidecars and the report echo.

``config_from_pairs`` reads each key once, through ``_read``: the value is
parsed, every number in it must be finite and inside the key's range, and a
refusal reads ``KEY <rule>, got VALUE`` (``got an empty value`` for an empty
one).  The rules that span a whole list are checked right after its read: a
mixture's weights must sum to 1, its means need one row of numbers per
weight, and its variances the shape of its means.  Keys of a section the
config does not use (``ring.*`` beside a Gaussian mixture,
``objective.clip`` beside a classic objective) are not read.  The
generator's input width is ``latent.dim``; an ``ExperimentConfig`` holds it
as ``g_spec.input_dim``.  The Sobolev stencil-step key accepts 1e-3
alone, the constant ``objectives.SOBOLEV_H``: it stays a key so that the
configs and checkpoint sidecars that set it still read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..diffcore import NetworkSpec
from ..diffcore.network import _ACTIVATIONS
from ..distributions import GaussianMixture, ring_mixture
from ..gapmetrics import ProximalConfig
from ..objectives import FGAN_FAMILIES, SOBOLEV_H, Classic, FGan, ObjectiveKind, WassersteinClip

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
    """A read config; only ``config_from_pairs`` builds one, so every value
    in it has passed its key's rule."""

    dist: GaussianMixture
    d_spec: NetworkSpec
    g_spec: NetworkSpec  # g_spec.input_dim is the latent width
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


def parse_pairs(text: str) -> dict:
    """Raw `key = value` lines; '#' starts a comment, blank lines are skipped,
    and a key may be set once."""
    pairs, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in lines:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on line {lines[key]}")
        pairs[key], lines[key] = value, lineno
    return pairs


def _floats(s: str) -> list:
    return [float(tok) for tok in s.replace(",", " ").split()]


def _ints(s: str) -> tuple:
    return tuple(int(tok) for tok in s.replace(",", " ").split())


def _rows(s: str) -> np.ndarray:
    return np.array([_floats(part) for part in s.split(";") if part.strip()], ndmin=2)


# what each parser reads, and the rules a key's numbers may have to pass
_FORMS = {float: "a number", int: "an integer", _floats: "numbers", _ints: "integers",
          _rows: "rows of numbers"}
_FINITE = ("must be finite", lambda v: v == v and v not in (math.inf, -math.inf))
_POSITIVE = ("must be positive", lambda v: v > 0)
_NONNEGATIVE = ("must be nonnegative", lambda v: v >= 0)


def _one_of(*choices):
    return f"must be one of {', '.join(choices)}", choices.__contains__


def _refused(pairs: dict, key: str, words: str) -> ConfigError:
    """``KEY words, got VALUE``, with an empty value named as one."""
    text = pairs[key]
    return ConfigError(f"{key} {words}, got {text if text.strip() else 'an empty value'}")


def _read(pairs: dict, key: str, parse=float, rule=_FINITE):
    """``pairs[key]`` read by ``parse``.  Every entry of it must be finite (if
    a number) and pass ``rule``, a ``(words, test)`` pair; otherwise
    ``ConfigError`` says ``KEY words, got VALUE``, as it does for a value
    that ``parse`` cannot read."""
    try:
        value = parse(pairs[key])
    except ValueError:
        raise _refused(pairs, key, f"must be {_FORMS[parse]}") from None
    for words, test in (_FINITE, rule):
        if not all(map(test, np.ravel(value).tolist())):
            raise _refused(pairs, key, words)
    return value


def _mixture(pairs: dict) -> GaussianMixture:
    """The ``distribution.*`` mixture, each of GaussianMixture's rules checked
    at the read of the key it refuses."""
    weights = _read(pairs, "distribution.weights", _floats, _POSITIVE)
    if abs(np.sum(weights) - 1.0) > 1e-9:
        raise _refused(pairs, "distribution.weights", "must sum to 1")
    means = _read(pairs, "distribution.means", _rows)
    if len(means) != len(weights) or not means.size:
        raise _refused(pairs, "distribution.means",
                       f"must have one row of numbers per weight ({len(weights)})")
    variances = _read(pairs, "distribution.variances", _rows, _POSITIVE)
    if variances.shape != means.shape:
        raise _refused(pairs, "distribution.variances", "must have the shape of "
                       f"distribution.means, {means.shape[0]} rows of {means.shape[1]}")
    return GaussianMixture(weights, means, variances)


def config_from_pairs(pairs: dict) -> ExperimentConfig:
    if not isinstance(pairs, dict):
        raise ConfigError(f"a config maps keys to values, got {type(pairs).__name__}")
    for key, value in pairs.items():
        if not (isinstance(key, str) and isinstance(value, str)):
            raise ConfigError(f"config key {key!r} must be a string with a string value, "
                              f"got {value!r}")
    unknown = set(pairs) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(DEFAULTS)
    merged.update(pairs)

    if _read(merged, "distribution.kind", str, _one_of("gmm", "ring")) == "gmm":
        dist = _mixture(merged)
    else:
        dist = ring_mixture(_read(merged, "ring.modes", int, _POSITIVE),
                            _read(merged, "ring.radius", rule=_POSITIVE),
                            _read(merged, "ring.sigma", rule=_POSITIVE))

    obj_kind = _read(merged, "objective.kind", str, _one_of("classic", "wgan_clip", "fgan"))
    if obj_kind == "classic":
        objective: ObjectiveKind = Classic()
    elif obj_kind == "wgan_clip":
        objective = WassersteinClip(_read(merged, "objective.clip", rule=_POSITIVE))
    else:
        objective = FGan(FGAN_FAMILIES[_read(merged, "objective.family", str,
                                             _one_of(*FGAN_FAMILIES))])

    activations = _one_of(*_ACTIVATIONS)
    d_spec = NetworkSpec(dist.dimension, _read(merged, "disc.hidden", _ints, _POSITIVE), 1,
                         activation=_read(merged, "disc.activation", str, activations),
                         output_head="sigmoid" if obj_kind == "classic" else "linear",
                         leaky_slope=_read(merged, "disc.leaky_slope"))
    g_spec = NetworkSpec(_read(merged, "latent.dim", int, _POSITIVE),
                         _read(merged, "gen.hidden", _ints, _POSITIVE), dist.dimension,
                         activation=_read(merged, "gen.activation", str, activations),
                         leaky_slope=_read(merged, "gen.leaky_slope"))

    total_steps = _read(merged, "train.steps", int, _NONNEGATIVE)
    if merged["train.checkpoint_every"].strip():
        interval = _read(merged, "train.checkpoint_every", int, _POSITIVE)
    elif total_steps >= 50 and total_steps % 50 == 0:
        interval = total_steps // 50  # default cadence: every 2% of the run
    else:
        interval = 1
    if total_steps % interval:
        raise ConfigError(f"train.checkpoint_every must divide train.steps ({total_steps}), "
                          f"got {interval}")
    merged["train.checkpoint_every"] = str(interval)

    _read(merged, "prox.sobolev_h", rule=("must be 1e-3", SOBOLEV_H.__eq__))
    prox = ProximalConfig(
        lam=_read(merged, "prox.lambda", rule=_NONNEGATIVE),
        prox_steps=_read(merged, "prox.steps", int, _POSITIVE),
        prox_lr=_read(merged, "prox.lr", rule=_POSITIVE),
        worst_iters=_read(merged, "prox.worst_iters", int, _NONNEGATIVE),
        worst_lr=_read(merged, "prox.worst_lr", rule=_POSITIVE),
        batch_size=_read(merged, "prox.batch", int, _POSITIVE),
    )

    unit = ("must lie in [0, 1)", lambda v: 0 <= v < 1)
    return ExperimentConfig(
        dist=dist,
        d_spec=d_spec,
        g_spec=g_spec,
        objective=objective,
        lr_d=_read(merged, "optim.lr_d", rule=_POSITIVE),
        lr_g=_read(merged, "optim.lr_g", rule=_POSITIVE),
        beta1=_read(merged, "optim.beta1", rule=unit),
        beta2=_read(merged, "optim.beta2", rule=unit),
        update_ratio=_read(merged, "train.ratio", int, ("must be nonzero", bool)),
        total_steps=total_steps,
        checkpoint_interval=interval,
        train_batch=_read(merged, "train.batch", int, _POSITIVE),
        prox=prox,
        n_a=_read(merged, "splits.train", int, _POSITIVE),
        n_b=_read(merged, "splits.search", int, _POSITIVE),
        n_c=_read(merged, "splits.eval", int, _POSITIVE),
        jsd_bins=_read(merged, "jsd.bins", int, _POSITIVE),
        seed=_read(merged, "seed", int, ("must lie in [0, 2**64)", lambda v: 0 <= v < 2 ** 64)),
        out_dir=merged["out"],
        pairs=merged,
    )


def config_from_text(text: str) -> ExperimentConfig:
    return config_from_pairs(parse_pairs(text))


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_text(fh.read())


def with_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Rebuild a config with some flat keys replaced (e.g. seed, out, train.ratio)."""
    pairs = dict(cfg.pairs)
    for key, value in overrides.items():
        pairs[key] = str(value)
    return config_from_pairs(pairs)
