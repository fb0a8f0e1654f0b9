"""Output checks computed apart from the program.

Networks are re-evaluated with a numpy-only forward pass, random streams and
data splits are re-derived from numpy's own generators, and divergences and
toy gaps come from closed forms.  Each check returns a list of messages, one
per violation; an empty list means the output passed.  No check compares
against a stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

EPS_LOG = 1e-7  # the objective's clamp on probabilistic discriminator outputs
CLOSE = 1e-9  # numpy forward vs program: same arithmetic, rounding only
STORED = 1e-10  # relative: values written to CSV with 12 significant digits
SEARCH_TOL = 1e-3  # worst-case searches run on minibatches, values are held out
SWEEP_TOL = 0.02  # lambda=1e6 vs plain: same limit, independent minibatch streams


# -- numpy-only re-derivation of the program's inputs ------------------------


def child_seed(seed: int, *tags: int) -> int:
    """The seed of ``Rng(seed).child(*tags)``."""
    state = np.random.SeedSequence([int(seed), *[int(t) for t in tags]])
    return int(state.generate_state(1, dtype=np.uint64)[0])


def child_gen(seed: int, *tags: int) -> np.random.Generator:
    """The PCG64 stream that ``Rng(seed).child(*tags)`` draws from."""
    return np.random.Generator(np.random.PCG64(child_seed(seed, *tags)))


def mixture(pairs: dict):
    """(weights, means, variances) of the data distribution a config names."""
    if pairs.get("distribution.kind", "gmm") == "ring":
        k, r, s = int(pairs["ring.modes"]), float(pairs["ring.radius"]), float(pairs["ring.sigma"])
        ang = 2.0 * np.pi * np.arange(k) / k
        return (np.full(k, 1.0 / k), r * np.stack([np.cos(ang), np.sin(ang)], axis=1),
                np.full((k, 2), s * s))
    rows = lambda text: np.array([[float(t) for t in part.split()]
                                  for part in text.split(";") if part.strip()])
    return (np.array([float(t) for t in pairs["distribution.weights"].split()]),
            rows(pairs["distribution.means"]), rows(pairs["distribution.variances"]))


def eval_split(pairs: dict) -> np.ndarray:
    """The evaluation rows of the run's data splits (child stream 3 of the seed)."""
    w, mu, var = mixture(pairs)
    n_a, n_b, n_c = (int(pairs[k]) for k in ("splits.train", "splits.search", "splits.eval"))
    gen = child_gen(int(pairs["seed"]), 3)
    n = n_a + n_b + n_c
    comps = gen.choice(w.size, size=n, p=w)
    eps = gen.standard_normal((n, mu.shape[1]))
    return (mu[comps] + np.sqrt(var[comps]) * eps)[n_a + n_b:]


# -- numpy-only networks ---------------------------------------------------------


def mlp(theta, widths, x, activation: str, head: str, slope: float) -> np.ndarray:
    """Forward pass over a flat parameter vector laid out W0, b0, W1, b1, ..."""
    theta = np.asarray(theta, dtype=np.float64)
    off = 0
    for i, (fi, fo) in enumerate(zip(widths[:-1], widths[1:])):
        w = theta[off:off + fi * fo].reshape(fi, fo)
        off += fi * fo
        x = x @ w + theta[off:off + fo]
        off += fo
        if i < len(widths) - 2:
            if activation == "tanh":
                x = np.tanh(x)
            elif activation == "relu":
                x = np.maximum(x, 0.0)
            else:
                x = np.where(x > 0, x, slope * x)
    if off != theta.size:
        raise ValueError(f"parameter vector has {theta.size} entries, layout needs {off}")
    if head == "sigmoid":
        x = 1.0 / (1.0 + np.exp(-x))
    return x


def game_value(pairs: dict, theta_d, theta_g, real, latent) -> float:
    """Monte-Carlo V of the config's objective at (theta_d, theta_g)."""
    dim = mixture(pairs)[1].shape[1]
    ints = lambda key: [int(t) for t in pairs[key].split()]
    kind = pairs.get("objective.kind", "classic")
    g_w = [int(pairs["latent.dim"]), *ints("gen.hidden"), dim]
    d_w = [dim, *ints("disc.hidden"), 1]
    fake = mlp(theta_g, g_w, latent, pairs["gen.activation"], "linear",
               float(pairs["gen.leaky_slope"]))
    head = "sigmoid" if kind == "classic" else "linear"
    d = lambda x: mlp(theta_d, d_w, x, pairs["disc.activation"], head,
                      float(pairs["disc.leaky_slope"]))
    if kind == "classic":
        pr = np.clip(d(real), EPS_LOG, 1.0 - EPS_LOG)
        pf = np.clip(d(fake), EPS_LOG, 1.0 - EPS_LOG)
        return float(np.mean(np.log(pr)) + np.mean(np.log(1.0 - pf)))
    if kind == "wgan_clip":
        return float(np.mean(d(real)) - np.mean(d(fake)))
    raise ValueError(f"no numpy value for objective {kind!r}")


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# -- monitored training runs ------------------------------------------------------


def train_failures(rec: dict) -> list:
    """A run that stopped on a non-finite loss, or logged a nan gap, failed."""
    out = []
    if rec["report"]["failed_at_step"] is not None:
        out.append(f"run failed at step {rec['report']['failed_at_step']}")
    if not np.all(np.isfinite(np.asarray(rec["metrics"], dtype=np.float64))):
        out.append("metrics.csv holds a non-finite cell")
    return out


def check_train(pairs: dict, rec: dict, ratio: int) -> list:
    """Counters, checkpoint cadence, gap order, clip box and V at the first checkpoint."""
    out = []
    rep = rec["report"]
    if rep["d_updates"] != ratio * rep["g_updates"]:
        out.append(f"d_updates {rep['d_updates']} != {ratio} * g_updates {rep['g_updates']}")
    steps, every = int(pairs["train.steps"]), int(pairs["train.checkpoint_every"])
    if rep["g_updates"] != steps:
        out.append(f"g_updates {rep['g_updates']} != train.steps {steps}")
    want = list(range(0, steps + 1, every))
    if [int(r[0]) for r in rec["metrics"]] != want or sorted(rec["checkpoints"]) != want:
        out.append(f"checkpoint steps {sorted(rec['checkpoints'])} != {want}")
    for row in rec["metrics"]:
        if row[4] > row[3] + SEARCH_TOL:
            out.append(f"step {row[0]:g}: dg_lambda {row[4]:.6g} above dg_plain {row[3]:.6g}")
    if pairs.get("objective.kind") == "wgan_clip":
        c = float(pairs["objective.clip"])
        for step, arrays in sorted(rec["checkpoints"].items()):
            worst = float(np.max(np.abs(arrays["theta_d"])))
            if worst > c + 1e-12:
                out.append(f"checkpoint {step}: |theta_d| reaches {worst:.6g} > clip {c}")
    # step 0 logs V itself (no update has happened) on the run's eval latent batch
    first = rec["checkpoints"].get(0)
    if first is not None:
        latent = child_gen(int(pairs["seed"]), 5).standard_normal(
            (int(pairs["splits.eval"]), int(pairs["latent.dim"])))
        v0 = game_value(pairs, first["theta_d"], first["theta_g"], eval_split(pairs), latent)
        if not close(v0, rec["metrics"][0][2], STORED):
            out.append(f"V at step 0 is {rec['metrics'][0][2]!r}, numpy forward gives {v0!r}")
    return out


def check_eval_objective(v_program: float, v_numpy: float) -> list:
    if close(v_program, v_numpy, CLOSE):
        return []
    return [f"eval_objective {v_program!r} != numpy forward {v_numpy!r}"]


def gap_latent(pairs: dict, tag: int, step: int, n: int) -> np.ndarray:
    """Latent batch of ``Rng(seed).child(tag, step).child(0)``: the gap and probe eval batch."""
    seed = child_seed(int(pairs["seed"]), tag, step)
    return child_gen(seed, 0).standard_normal((n, int(pairs["latent.dim"])))


# -- gap estimates, sweeps and probes --------------------------------------------


def check_gap(gap: dict, v0: float) -> list:
    """V0 >= v_gw_plain and dg_lambda <= dg_plain.

    The matching bound v_dw >= V0 is not checked: estimate_v_dw returns less
    than V0 on some seeds (see README.md).
    """
    out = []
    if v0 < gap["v_gw_plain"] - SEARCH_TOL:
        out.append(f"V0 {v0:.6g} below v_gw_plain {gap['v_gw_plain']:.6g}")
    if gap["dg_lambda"] > gap["dg_plain"] + SEARCH_TOL:
        out.append(f"dg_lambda {gap['dg_lambda']:.6g} above dg_plain {gap['dg_plain']:.6g}")
    return out


def check_sweep(rows: list, lambdas, gap: dict, lam: float) -> list:
    """Ordered by lambda, shared v_dw, nondecreasing gap, lambda=1e6 near the plain gap."""
    out = []
    lams = [r[0] for r in rows]
    if lams != sorted(float(x) for x in lambdas):
        out.append(f"sweep lambdas {lams} are not the sorted grid")
        return out
    if len({r[1] for r in rows}) != 1 or len({r[4] for r in rows}) != 1:
        out.append("v_dw or dg_plain differs across the sweep")
    for a, b in zip(rows, rows[1:]):
        if b[3] < a[3] - SEARCH_TOL:
            out.append(f"dg_lambda falls from {a[3]:.6g} at {a[0]:g} to {b[3]:.6g} at {b[0]:g}")
    if abs(rows[-1][3] - rows[-1][4]) > SWEEP_TOL:
        out.append(f"dg_lambda({rows[-1][0]:g}) = {rows[-1][3]:.6g} far from "
                   f"dg_plain {rows[-1][4]:.6g}")
    same = [r for r in rows if r[0] == lam]
    if same and not all(close(a, b, STORED) for a, b in zip(
            same[0][1:], (gap["v_dw"], gap["v_gw_lambda"], gap["dg_lambda"], gap["dg_plain"]))):
        out.append(f"sweep row at lambda={lam:g} disagrees with the gap command")
    return out


def check_deviation(rows: list, v0: float) -> list:
    """Starts at V0 and never rises along the generator's unilateral descent."""
    out = []
    if not close(rows[0][1], v0, STORED):
        out.append(f"trace starts at {rows[0][1]!r}, numpy forward gives {v0!r}")
    for a, b in zip(rows, rows[1:]):
        if b[1] > a[1] + SEARCH_TOL:
            out.append(f"trace rises from {a[1]:.6g} at step {a[0]} to {b[1]:.6g} at {b[0]}")
    return out


# -- toy games and divergences ---------------------------------------------------

TOY_TOL = 0.05  # estimator vs grid oracle
GRID_TOL = 0.01  # 401-point grid vs closed form


def bilinear_gaps(d0: float, g0: float, lam: float):
    """Exact plain and proximal gaps of V = d*g on [-1, 1]^2.

    The inner maximum over d of d*g - lam*(d - d0)^2 has the clipped
    maximizer in closed form; the outer minimum over g is of a convex
    function (a maximum of affine ones), solved to 1e-12.
    """
    from scipy.optimize import minimize_scalar

    def v_lam(g):
        d = np.clip(d0 + g / (2.0 * lam), -1.0, 1.0)
        return d * g - lam * (d - d0) ** 2

    best = minimize_scalar(v_lam, bounds=(-1.0, 1.0), method="bounded",
                           options={"xatol": 1e-12})
    v_min = min(best.fun, v_lam(-1.0), v_lam(1.0))
    return abs(d0) + abs(g0), abs(g0) - v_min


def check_toy_estimate(est: dict, grid_plain: float, grid_lam: float) -> list:
    out = []
    if abs(est["dg_plain"] - grid_plain) > TOY_TOL:
        out.append(f"dg_plain {est['dg_plain']:.6g} vs grid {grid_plain:.6g}")
    if abs(est["dg_lambda"] - grid_lam) > TOY_TOL:
        out.append(f"dg_lambda {est['dg_lambda']:.6g} vs grid {grid_lam:.6g}")
    return out


def check_bilinear_grid(grid_value: float, exact: float, what: str) -> list:
    if abs(grid_value - exact) > GRID_TOL:
        return [f"bilinear grid {what} gap {grid_value:.6g} vs closed form {exact:.6g}"]
    return []


def mixture_pdf(weights, means, variances, pts) -> np.ndarray:
    diff = pts[:, None, :] - np.asarray(means)[None]
    var = np.asarray(variances)[None]
    comp = np.exp(-0.5 * np.sum(diff * diff / var, axis=2)) / np.sqrt(
        np.prod(2.0 * np.pi * var, axis=2))
    return comp @ np.asarray(weights)


def gaussian_kl(mu0, var0, mu1, var1) -> float:
    """KL(N0 || N1) for axis-aligned Gaussians."""
    mu0, var0, mu1, var1 = (np.asarray(a, dtype=np.float64) for a in (mu0, var0, mu1, var1))
    return float(0.5 * np.sum(var0 / var1 + (mu1 - mu0) ** 2 / var1 - 1.0 + np.log(var1 / var0)))


def check_kl(value: float, p, q) -> list:
    """numeric_fdiv's convention integrates p f(q/p), which is KL(q || p) for f = t log t."""
    exact = gaussian_kl(q[1][0], q[2][0], p[1][0], p[2][0])
    if abs(value - exact) > 1e-6:
        return [f"numeric_fdiv KL {value:.10g} vs closed form {exact:.10g}"]
    return []


def check_jsd(jsd: float, p, q, box, resolution: int) -> list:
    """V of the probabilistic game at D* = p/(p+q) equals 2 JSD - log 4."""
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pr, pg = mixture_pdf(*p, pts), mixture_pdf(*q, pts)
    total = pr + pg
    integrand = (xlogy(pr, pr) - xlogy(pr, total) + xlogy(pg, pg) - xlogy(pg, total))
    integrand = integrand.reshape(resolution, resolution)
    v_c = np.trapezoid(np.trapezoid(integrand, axes[1], axis=1), axes[0])
    if abs(v_c - (2.0 * jsd - np.log(4.0))) > 1e-4:
        return [f"V at D* {v_c:.8g} vs 2 JSD - log 4 = {2.0 * jsd - np.log(4.0):.8g}"]
    return []
