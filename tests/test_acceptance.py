"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The desk-scale experiment (criteria 7-10, 12) is a
single seeded training run shared by its tests via module-scoped fixtures;
those tests carry the `slow` marker, so `pytest -m "not slow"` leaves them out.
"""

import time

import numpy as np
import pytest

from proxgap.diffcore import (
    NetworkSpec,
    Rng,
    finite_diff_grad,
    forward_graph,
    grad_params,
    init_network,
)
from proxgap.distributions import GaussianMixture, density
from proxgap.gapmetrics import ProximalConfig, ToyGameState, duality_gap
from proxgap.harness import (
    compare_metrics_csv,
    config_from_text,
    correlate,
    gap_cmd,
    lambda_sweep_cmd,
    read_metrics,
    train,
    with_overrides,
)
from proxgap.objectives import FGAN_FAMILIES, fenchel_identity_residual
from proxgap.oracles import (
    GridSpec,
    ToyGame,
    bilinear,
    grid_dg,
    grid_dg_lambda,
    numeric_jsd,
    shipped_games,
)
from proxgap.probes import GENERATOR, hessian_spectrum_probe, unilateral_deviation

GRID = GridSpec(401)
TOY_CFG = ProximalConfig(lam=0.1, prox_steps=20, prox_lr=0.5,
                         worst_iters=400, worst_lr=0.02, batch_size=1)
LADDER = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0, 1e6]

DESK_CONFIG = """
seed = 2
train.steps = 2500
train.checkpoint_every = 250
train.ratio = 2
train.batch = 256
optim.lr_d = 1e-3
optim.lr_g = 3e-4
disc.hidden = 32 32
gen.hidden = 32 32
latent.dim = 4
distribution.means = -1.2 0; 1.2 0
distribution.variances = 0.09 0.09; 0.09 0.09
prox.worst_iters = 150
prox.worst_lr = 5e-3
prox.batch = 128
"""


def _report(criterion, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: gradient fidelity -----------------------------------------


def test_criterion_1_gradient_fidelity():
    t0 = time.monotonic()
    rng = Rng(1001)
    worst = 0.0
    for trial in range(20):
        depth = 2 + trial % 2
        widths = tuple(int(rng.integers(3, 7)) for _ in range(depth))
        spec = NetworkSpec(2, widths, 1, activation="tanh")
        params = init_network(spec, rng.child(trial))
        batch = rng.normal((4, 2))
        target = rng.normal((4, 1))

        def loss(theta):
            diff = forward_graph(spec, theta, batch) - target
            return (diff * diff).mean()

        exact = grad_params(loss, params)
        approx = finite_diff_grad(loss, params, h=1e-5)
        rel = np.linalg.norm(exact - approx) / max(np.linalg.norm(exact), 1e-300)
        worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    _report(1, worst < 1e-4 and elapsed < 1.0,
            f"worst relative error {worst:.2e} over 20 nets in {elapsed:.2f}s")


# -- criterion 2: Fenchel identity ------------------------------------------


def test_criterion_2_fenchel_identity():
    t0 = time.monotonic()
    worst = 0.0
    for family in FGAN_FAMILIES.values():
        for t in np.logspace(-1, 1, 50):
            worst = max(worst, fenchel_identity_residual(family, t))
    elapsed = time.monotonic() - t0
    _report(2, worst < 1e-9 and elapsed < 1.0,
            f"worst residual {worst:.2e} across {len(FGAN_FAMILIES)} families "
            f"in {elapsed:.2f}s")


# -- criteria 3-5: toy-game fidelity, hierarchy, lambda limit ----------------


def test_criterion_3_definition_fidelity_on_toys():
    t0 = time.monotonic()
    saddle = grid_dg(bilinear(), (np.array([0.0]), np.array([0.0])), GRID)
    corner = grid_dg(bilinear(), (np.array([1.0]), np.array([1.0])), GRID)
    ok = saddle < 1e-6 and abs(corner - 2.0) < 0.01
    worst = 0.0
    rng = Rng(1003)
    for game in shipped_games():
        for i in range(10):
            d = np.array([rng.uniform(*game.d_box[0], ())])
            g = np.array([rng.uniform(*game.g_box[0], ())])
            rep = duality_gap(ToyGameState(game, d, g), None, TOY_CFG, Rng(4000 + i))
            err_plain = abs(rep.dg_plain - grid_dg(game, (d, g), GRID))
            err_lam = abs(rep.dg_lambda - grid_dg_lambda(game, (d, g), TOY_CFG.lam, GRID))
            worst = max(worst, err_plain, err_lam)
    elapsed = time.monotonic() - t0
    _report(3, ok and worst < 0.05 and elapsed < 30.0,
            f"saddle gap {saddle:.1e}, corner gap {corner:.4f}, worst "
            f"estimator-vs-oracle error {worst:.4f} over 30 configs in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def lambda_ladder_gaps():
    """Gap ladders for 10 node-snapped configurations per game (criteria 4 and 5)."""
    rng = Rng(1004)
    results = []
    t0 = time.monotonic()
    for game in shipped_games():
        nodes = np.linspace(game.d_box[0][0], game.d_box[0][1], GRID.points_per_dim)
        for _ in range(10):
            d = np.array([nodes[rng.integers(0, len(nodes))]])
            g = np.array([rng.uniform(*game.g_box[0], ())])
            gaps = [grid_dg_lambda(game, (d, g), lam, GRID) for lam in LADDER]
            plain = grid_dg(game, (d, g), GRID)
            results.append((game.name, gaps, plain))
    return results, time.monotonic() - t0


def test_criterion_4_hierarchy_and_monotonicity(lambda_ladder_gaps):
    results, elapsed = lambda_ladder_gaps
    tol = 1e-6
    mono_ok = all(np.all(np.diff(gaps) >= -tol) for _, gaps, _ in results)
    hier_ok = True
    for _, gaps, _ in results:
        for i in range(len(gaps)):
            for j in range(i + 1, len(gaps)):
                if gaps[j] < tol and not gaps[i] < tol:
                    hier_ok = False
    _report(4, mono_ok and hier_ok and elapsed < 60.0,
            f"monotone={mono_ok}, hierarchy={hier_ok} over "
            f"{len(results)} configurations x {len(LADDER)} lambdas in {elapsed:.1f}s")


def test_criterion_5_lambda_limit(lambda_ladder_gaps):
    results, _ = lambda_ladder_gaps
    worst = max(abs(gaps[-1] - plain) for _, gaps, plain in results)
    _report(5, worst < 1e-3,
            f"max |gap(1e6) - plain gap| = {worst:.2e} over {len(results)} configurations")


# -- criterion 6: optimal discriminator reproduces the divergence value ------


def test_criterion_6_optimal_discriminator_value():
    t0 = time.monotonic()
    pairs = [
        (GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]]),
         GaussianMixture([1.0], [[1.0, 0.5]], [[1.0, 1.0]])),
        (GaussianMixture([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]]),
         GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])),
        (GaussianMixture([0.3, 0.7], [[-1.0, -1.0], [1.0, 1.0]], [[0.4, 0.6], [0.6, 0.4]]),
         GaussianMixture([0.5, 0.5], [[-1.0, 1.0], [1.0, -1.0]], [[0.5, 0.5], [0.5, 0.5]])),
    ]
    from scipy.integrate import trapezoid
    worst = 0.0
    for p_dist, q_dist in pairs:
        box = [(-7.0, 8.0), (-7.0, 7.5)]
        res = 401
        axes = [np.linspace(lo, hi, res) for lo, hi in box]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        pr, pg = density(p_dist, pts), density(q_dist, pts)
        d_star = pr / (pr + pg)
        integrand = (pr * np.log(d_star) + pg * np.log(1.0 - d_star)).reshape(res, res)
        v_c = trapezoid(trapezoid(integrand, axes[1], axis=1), axes[0])
        jsd = numeric_jsd(lambda x: density(p_dist, x), lambda x: density(q_dist, x),
                          box, res)
        worst = max(worst, abs(v_c - (2.0 * jsd - np.log(4.0))))
    elapsed = time.monotonic() - t0
    _report(6, worst < 1e-4 and elapsed < 10.0,
            f"max |V_c@D* - (2 JSD - log4)| = {worst:.2e} over 3 pairs in {elapsed:.1f}s")


# -- criteria 7-10, 12: the seeded desk experiment ---------------------------


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk") / "run"
    cfg = config_from_text(DESK_CONFIG + f"\nout = {out}\n")
    t0 = time.monotonic()
    run_dir = train(cfg)
    elapsed = time.monotonic() - t0
    return run_dir, read_metrics(run_dir / "metrics.csv"), elapsed, cfg


@pytest.mark.slow
def test_criterion_7_lower_bound_at_desk_scale(desk_run):
    run_dir, rows, elapsed, _ = desk_run
    margins = [r.dg_lambda - (r.hist_jsd - 0.1) for r in rows]
    ok = all(m >= 0 for m in margins) and elapsed < 300.0
    _report(7, ok,
            f"dg_lambda >= hist_jsd - 0.1 at all {len(rows)} checkpoints "
            f"(min margin {min(margins):.3f}), run took {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_8_convergence_analog(desk_run):
    _, rows, _, _ = desk_run
    final_jsd = rows[-1].hist_jsd
    initial, final = rows[0].dg_lambda, rows[-1].dg_lambda
    ok = final_jsd < 0.15 and final < 0.5 * initial
    _report(8, ok,
            f"final hist JSD {final_jsd:.3f} (< 0.15), gap {initial:.3f} -> "
            f"{final:.3f} (< half)")


@pytest.mark.slow
def test_criterion_9_correlation_analog(desk_run):
    run_dir, _, _, _ = desk_run
    rep = correlate(run_dir / "metrics.csv")
    ok = rep.r_dg_lambda > 0.5 and rep.r_dg_lambda > rep.r_dg_plain
    _report(9, ok,
            f"r(dg_lambda, jsd) = {rep.r_dg_lambda:.3f} > 0.5 and > "
            f"r(dg_plain, jsd) = {rep.r_dg_plain:.3f}")


@pytest.fixture(scope="module")
def desk_sweep(desk_run, tmp_path_factory):
    run_dir, _, _, _ = desk_run
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    ckpt = run_dir / "checkpoint_002500.npz"
    path = lambda_sweep_cmd(ckpt, [0.01, 0.1, 1e6], out)
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        lam, v_dw, v_gw_l, dg_l, dg_p = (float(tok) for tok in line.split(","))
        rows[lam] = {"dg_lambda": dg_l, "dg_plain": dg_p}
    return ckpt, path, rows


@pytest.mark.slow
def test_criterion_10_sweep_shape(desk_sweep):
    _, _, rows = desk_sweep
    small_flat = abs(rows[0.01]["dg_lambda"] - rows[0.1]["dg_lambda"]) < 0.05
    dg_plain = rows[0.1]["dg_plain"]
    dg_lam = rows[0.1]["dg_lambda"]
    if dg_plain > dg_lam + 0.1:
        rises = rows[1e6]["dg_lambda"] > dg_lam + 0.1
        detail = (f"|gap(0.01)-gap(0.1)| = "
                  f"{abs(rows[0.01]['dg_lambda'] - dg_lam):.3f}, "
                  f"gap(1e6) = {rows[1e6]['dg_lambda']:.3f} > gap(0.1)+0.1 = "
                  f"{dg_lam + 0.1:.3f}")
    else:
        rises = True
        detail = "plain and penalized gaps already agree; rise condition vacuous"
    _report(10, small_flat and rises, detail)


# -- criterion 11: probe correctness ------------------------------------------


def test_criterion_11_probe_correctness():
    t0 = time.monotonic()
    quad = ToyGame("saddle_probe",
                   lambda d, g: 0.5 * np.sum(np.array([2.0, -1.0]) * g * g, axis=-1),
                   ((-1.0, 1.0),), ((-5.0, 5.0), (-5.0, 5.0)))
    spectrum = hessian_spectrum_probe(
        ToyGameState(quad, np.array([0.0]), np.array([0.4, -0.3])),
        None, GENERATOR, k=2, rng=Rng(1011))
    eig_ok = (abs(spectrum.eigenvalues[0] - 2.0) < 1e-3
              and abs(spectrum.eigenvalues[1] + 1.0) < 1e-3
              and spectrum.nash_consistent is False)
    trace = unilateral_deviation(
        ToyGameState(bilinear(), np.array([0.0]), np.array([0.0])),
        None, steps=100, lr=0.05, eval_every=10, rng=Rng(1012))
    dev_ok = np.max(np.abs(trace.values - trace.values[0])) < 1e-3
    elapsed = time.monotonic() - t0
    _report(11, eig_ok and dev_ok and elapsed < 30.0,
            f"saddle spectrum {tuple(round(v, 4) for v in spectrum.eigenvalues)} "
            f"(consistent={spectrum.nash_consistent}), max |dV| at Nash "
            f"{np.max(np.abs(trace.values - trace.values[0])):.1e}, {elapsed:.1f}s")


# -- criterion 12: determinism -------------------------------------------------


@pytest.mark.slow
def test_criterion_12_determinism(desk_run, desk_sweep, tmp_path_factory):
    run_dir, _, _, cfg = desk_run
    ckpt, sweep_path, _ = desk_sweep
    rerun_out = tmp_path_factory.mktemp("desk_again") / "run"
    rerun_dir = train(with_overrides(cfg, out=str(rerun_out)))
    # wallclock_ms is excluded: it is the one intrinsically nondeterministic column
    metrics_ok = compare_metrics_csv(run_dir / "metrics.csv",
                                     rerun_dir / "metrics.csv", tol=1e-9)
    sweep_again = lambda_sweep_cmd(rerun_dir / "checkpoint_002500.npz", [0.01, 0.1, 1e6],
                                   tmp_path_factory.mktemp("sweep_again") / "sweep.csv")
    sweep_ok = sweep_path.read_text() == sweep_again.read_text()
    gap_a = gap_cmd(ckpt)
    gap_b = gap_cmd(ckpt)
    gap_ok = gap_a == gap_b
    _report(12, metrics_ok and sweep_ok and gap_ok,
            f"re-run metrics identical (sans wallclock)={metrics_ok}, "
            f"sweep identical={sweep_ok}, gap command identical={gap_ok}")
