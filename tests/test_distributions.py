import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import logsumexp

from proxgap.diffcore import Rng
from proxgap.distributions import (
    DataSplits,
    GaussianMixture,
    LatentSpec,
    density,
    draw_minibatch,
    log_density,
    make_splits,
    ring_mixture,
    sample_latent,
    sample_real,
)


def single_mode(dim=2):
    return GaussianMixture([1.0], np.zeros((1, dim)), np.ones((1, dim)))


def two_mode():
    return GaussianMixture([0.5, 0.5], [[-1.5, 0.0], [1.5, 0.0]],
                           [[0.0625, 0.0625], [0.0625, 0.0625]])


def test_validation_rejects_bad_mixtures():
    with pytest.raises(ValueError):
        GaussianMixture([0.5, 0.6], [[0.0], [1.0]], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        GaussianMixture([1.0], [[0.0]], [[0.0]])
    with pytest.raises(ValueError):
        GaussianMixture([0.5, 0.5], [[0.0]], [[1.0]])


def test_sample_mean_close_to_zero():
    x = sample_real(single_mode(), 100_000, Rng(0))
    assert np.all(np.abs(x.mean(axis=0)) < 0.02)  # 3 sigma / sqrt(n) ~ 0.0095


def test_ring_samples_stay_near_modes():
    dist = ring_mixture(8, 2.0, 0.05)
    x = sample_real(dist, 5000, Rng(1))
    d2 = ((x[:, None, :] - dist.means[None]) ** 2).sum(axis=2)
    nearest = np.sqrt(d2.min(axis=1))
    assert np.mean(nearest < 0.5) >= 0.99


def test_sample_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        sample_real(single_mode(), 0, Rng(0))


def test_log_density_standard_normal_origin():
    val = log_density(single_mode(2), np.zeros(2))
    assert val == pytest.approx(-np.log(2.0 * np.pi), abs=1e-12)


def _broadcast_components(dist, pts):
    """Log mixture components per (row, mode), from (rows, modes, dim) arrays."""
    diff = pts[:, None, :] - dist.means[None, :, :]
    quad = -0.5 * np.sum(diff * diff / dist.variances[None, :, :], axis=2)
    lognorm = -0.5 * np.sum(np.log(2.0 * np.pi * dist.variances), axis=1)
    return quad + lognorm + np.log(dist.weights)


def _scipy_log_density(dist, pts):
    return logsumexp(_broadcast_components(dist, pts), axis=1)


@pytest.mark.parametrize("modes", [1, 2, 8])
def test_log_density_matches_scipy_logsumexp(modes):
    gen = np.random.default_rng(modes)
    weights = gen.uniform(0.1, 1.0, modes)
    dist = GaussianMixture(weights / weights.sum(), gen.normal(0.0, 2.0, (modes, 2)),
                           gen.uniform(0.05, 2.0, (modes, 2)))
    # far-tail rows: every component's exp underflows to 0 without the shift
    pts = np.vstack([gen.normal(0.0, 3.0, (500, 2)),
                     gen.uniform(-1e3, 1e3, (50, 2)),
                     [[1e3, -1e3], [-1e3, 1e3]]])
    got = log_density(dist, pts)
    want = _scipy_log_density(dist, pts)
    assert np.all(np.isfinite(got))
    assert np.all(np.exp(want[500:]) == 0.0)  # the tail is past exp's range
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15
    assert log_density(dist, np.array([np.inf, 0.0])) == -np.inf


def test_density_symmetric_mixture():
    dist = two_mode()
    pts = Rng(2).normal((50, 2))
    assert np.allclose(log_density(dist, pts), log_density(dist, -pts))


@pytest.mark.parametrize("dist", [single_mode(), two_mode(), ring_mixture(8, 2.0, 0.05)],
                         ids=["single", "two-mode", "ring"])
def test_density_integrates_to_one(dist):
    # 6-sigma box around the modes, iterated trapezoid quadrature
    span = np.sqrt(dist.variances.max()) * 6.0
    lo = dist.means.min(axis=0) - span
    hi = dist.means.max(axis=0) + span
    n = 501
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    dens = np.exp(log_density(dist, pts)).reshape(n, n)
    total = trapezoid(trapezoid(dens, ys, axis=1), xs)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_ring_equals_equivalent_mixture_exactly():
    ring = ring_mixture(6, 1.5, 0.2)
    angles = 2.0 * np.pi * np.arange(6) / 6
    manual = GaussianMixture(np.full(6, 1 / 6),
                             1.5 * np.stack([np.cos(angles), np.sin(angles)], axis=1),
                             np.full((6, 2), 0.2 ** 2))
    pts = Rng(3).normal((100, 2)) * 2.0
    assert np.array_equal(log_density(ring, pts), log_density(manual, pts))


def test_latent_moments_and_determinism():
    spec = LatentSpec(3)
    z = sample_latent(spec, 10_000, Rng(4))
    assert np.all(np.abs(z.mean(axis=0)) < 3.0 / np.sqrt(10_000))
    assert np.all(np.abs(z.var(axis=0) - 1.0) < 0.05)
    assert np.array_equal(z, sample_latent(spec, 10_000, Rng(4)))


def test_splits_sizes_and_disjoint():
    splits = make_splits(two_mode(), 800, 100, 100, Rng(5))
    assert splits.s_a.shape == (800, 2)
    assert splits.s_b.shape == (100, 2)
    assert splits.s_c.shape == (100, 2)
    rows = {arr.tobytes() for part in (splits.s_a, splits.s_b, splits.s_c) for arr in part}
    assert len(rows) == 1000


def test_splits_paper_scale_sizes():
    splits = make_splits(single_mode(), 1000, 5000, 5000, Rng(6))
    assert splits.s_b.shape[0] == 5000
    assert splits.s_c.shape[0] == 5000


def test_splits_deterministic():
    a = make_splits(two_mode(), 50, 20, 20, Rng(7))
    b = make_splits(two_mode(), 50, 20, 20, Rng(7))
    assert np.array_equal(a.s_a, b.s_a)
    assert np.array_equal(a.s_b, b.s_b)
    assert np.array_equal(a.s_c, b.s_c)


def test_splits_arrays_read_only():
    splits = make_splits(two_mode(), 10, 5, 5, Rng(8))
    with pytest.raises(ValueError):
        splits.s_a[0, 0] = 99.0
    assert isinstance(splits, DataSplits)


def _broadcast_log_density(dist, x):
    """The broadcast formula log_density replaced: (rows, modes, dim) arrays
    reduced by numpy's sum, kept as the oracle its bits are pinned to."""
    arr = np.asarray(x, dtype=np.float64)
    comp = _broadcast_components(dist, np.atleast_2d(arr))
    top = np.maximum(comp.max(axis=1, keepdims=True), np.finfo(np.float64).min)
    with np.errstate(divide="ignore"):
        out = (top + np.log(np.sum(np.exp(comp - top), axis=1, keepdims=True)))[:, 0]
    return float(out[0]) if arr.ndim == 1 else out


def _random_mixture(gen, modes, dim):
    weights = gen.uniform(0.1, 1.0, modes)
    return GaussianMixture(weights / weights.sum(), gen.normal(0.0, 2.0, (modes, dim)),
                           gen.uniform(0.05, 2.0, (modes, dim)))


def _hard_rows(gen, dim):
    """Bulk and far-tail rows plus rows holding inf, -inf, 1e200 and nan."""
    rows = np.vstack([gen.normal(0.0, 3.0, (300, dim)), gen.uniform(-1e3, 1e3, (20, dim)),
                      np.zeros((1, dim))])
    special = np.full((6, dim), 0.5)
    special[0, 0], special[1, -1], special[2, 0], special[3, -1] = np.inf, -np.inf, 1e200, -1e200
    special[4], special[5, 0] = np.inf, np.nan
    return np.vstack([rows, special])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("modes", range(1, 8))
def test_log_density_carries_the_broadcast_formulas_bytes(modes, dim):
    gen = np.random.default_rng(100 * modes + dim)
    dist = _random_mixture(gen, modes, dim)
    pts = _hard_rows(gen, dim)
    got = log_density(dist, pts)
    assert got.tobytes() == _broadcast_log_density(dist, pts).tobytes()
    assert got[-2] == -np.inf and np.isnan(got[-1])
    point = pts[0]
    assert np.float64(log_density(dist, point)).tobytes() == \
        np.float64(_broadcast_log_density(dist, point)).tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("modes, dim", [(8, 2), (9, 1), (10, 2), (17, 3), (10, 9), (130, 1)])
def test_log_density_keeps_numpys_pairwise_order_past_eight_terms(modes, dim):
    # from 8 terms on numpy sums in 8 interleaved partial sums (and halves
    # past 128), which log_density repeats over modes and over coordinates
    gen = np.random.default_rng(modes + 1000 * dim)
    pts = _hard_rows(gen, dim)
    dists = [_random_mixture(gen, modes, dim)]
    if (modes, dim) == (8, 2):
        dists.append(ring_mixture(8, 2.0, 0.05))
    for dist in dists:
        assert log_density(dist, pts).tobytes() == _broadcast_log_density(dist, pts).tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("modes, dim", [(1, 1), (2, 2), (3, 3), (8, 2), (10, 9)])
def test_density_is_pointwise(modes, dim):
    # the quadrature oracles evaluate their grid in blocks of rows, so a row's
    # value must not depend on the rows evaluated with it
    gen = np.random.default_rng(7 * modes + dim)
    dist = _random_mixture(gen, modes, dim)
    pts = np.vstack([gen.normal(0.0, 3.0, (1000, dim)), _hard_rows(gen, dim)])
    for fn in (log_density, density):
        whole = fn(dist, pts)
        for cut in (1, 17, 333, len(pts) - 1):
            halves = np.concatenate([fn(dist, pts[:cut]), fn(dist, pts[cut:])])
            assert halves.tobytes() == whole.tobytes(), (fn.__name__, cut)
        for i in (0, 1, 500, len(pts) - 3, len(pts) - 1):
            assert np.float64(fn(dist, pts[i])).tobytes() == whole[i].tobytes(), (fn.__name__, i)


def test_draw_minibatch_takes_rows_then_latents_from_one_stream():
    rows = np.arange(20.0).reshape(10, 2)
    rng, ref = Rng(4), Rng(4)
    real, latent = draw_minibatch(rows, 7, 3, rng)
    idx = ref.integers(0, 10, 7)
    assert np.array_equal(real, rows[idx])
    assert latent.tobytes() == ref.normal((7, 3)).tobytes()
    assert rng.state == ref.state
