import ast
import csv
import hashlib
import inspect
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from proxgap import gapmetrics
from proxgap.diffcore import Rng
from proxgap.gapmetrics import ESTIMATE_REVISION, ProximalConfig, duality_gap
from proxgap.harness import (
    ConfigError,
    compare_metrics_csv,
    config_from_text,
    correlate,
    gap_cmd,
    lambda_sweep_cmd,
    load_checkpoint,
    pearson_r,
    ratio_sweep_cmd,
    read_metrics,
    rebuild_splits,
    train,
    with_overrides,
)
from proxgap.harness import runner
from proxgap.harness.cli import main
from proxgap.objectives import WassersteinClip

TINY = """
seed = 11
train.steps = 40
train.checkpoint_every = 20
train.batch = 32
splits.train = 300
splits.search = 120
splits.eval = 120
prox.worst_iters = 8
prox.batch = 32
disc.hidden = 8
gen.hidden = 8
"""


def tiny_cfg(out, **overrides):
    cfg = config_from_text(TINY + f"\nout = {out}\n")
    return with_overrides(cfg, **overrides) if overrides else cfg


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "base"
    run_dir = train(tiny_cfg(out))
    return run_dir


# -- config -------------------------------------------------------------


def test_config_defaults_parse():
    cfg = config_from_text("")
    assert cfg.prox.lam == 0.1
    assert cfg.prox.prox_steps == 20
    assert cfg.update_ratio == 1
    assert cfg.d_spec.output_head == "sigmoid"
    assert cfg.total_steps % cfg.checkpoint_interval == 0


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_text("nonsense.key = 1")


def test_config_rejects_zero_ratio():
    with pytest.raises(ConfigError):
        config_from_text("train.ratio = 0")


def test_config_interval_must_divide():
    with pytest.raises(ConfigError):
        config_from_text("train.steps = 100\ntrain.checkpoint_every = 33")


def test_config_wgan_gets_linear_head():
    cfg = config_from_text("objective.kind = wgan_clip\nobjective.clip = 0.01")
    assert cfg.d_spec.output_head == "linear"
    assert isinstance(cfg.objective, WassersteinClip)


@pytest.mark.parametrize("text,key", [
    ("prox.lambda = nan", "prox.lambda"),
    ("prox.lr = inf", "prox.lr"),
    ("prox.worst_lr = nan", "prox.worst_lr"),
    ("prox.sobolev_h = inf", "prox.sobolev_h"),
    ("optim.lr_d = nan", "optim.lr_d"),
    ("optim.lr_g = inf", "optim.lr_g"),
    ("optim.beta1 = nan", "optim.beta1"),
    ("optim.beta2 = -inf", "optim.beta2"),
    ("objective.kind = wgan_clip\nobjective.clip = nan", "objective.clip"),
    ("disc.leaky_slope = nan", "disc.leaky_slope"),
    ("gen.leaky_slope = inf", "gen.leaky_slope"),
    ("distribution.kind = ring\nring.sigma = nan", "ring.sigma"),
    ("distribution.kind = ring\nring.radius = inf", "ring.radius"),
    ("distribution.weights = 0.5 nan", "distribution.weights"),
    ("distribution.means = -1.5 0; inf 0", "distribution.means"),
    ("distribution.variances = 0.0625 nan; 0.0625 0.0625", "distribution.variances"),
    ("optim.beta1 = 1.0", "optim.beta1"),
    ("optim.beta2 = 1.5", "optim.beta2"),
    ("optim.beta1 = -0.1", "optim.beta1"),
    ("jsd.bins = 0", "jsd.bins"),
])
def test_config_rejects_nonfinite_and_out_of_range_floats(text, key):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        config_from_text(text)


@pytest.mark.parametrize("field", ["lam", "prox_lr", "worst_lr", "sobolev_h"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_proximal_config_rejects_nonfinite_values(field, value):
    with pytest.raises(ValueError, match="finite"):
        ProximalConfig(**{field: value})


def test_config_ring_distribution():
    cfg = config_from_text("distribution.kind = ring\nring.modes = 4")
    assert cfg.dist.mode_count == 4
    assert cfg.dist.dimension == 2


# -- train -------------------------------------------------------------


def test_train_outputs_and_schema(tiny_run):
    rows = read_metrics(tiny_run / "metrics.csv")
    assert [r.step for r in rows] == [0.0, 20.0, 40.0]
    report = json.loads((tiny_run / "report.json").read_text())
    assert report["failed_at_step"] is None
    assert report["d_updates"] == 40
    assert report["g_updates"] == 40
    assert len(report["checkpoints"]) == 3
    for path in report["checkpoints"]:
        assert (tiny_run / path.split("/")[-1]).exists()


def test_train_never_overwrites(tiny_run):
    with pytest.raises(FileExistsError):
        train(tiny_cfg(tiny_run))


def test_train_zero_steps_initial_checkpoint_only(tmp_path):
    cfg = tiny_cfg(tmp_path / "zero", **{"train.steps": 0,
                                         "train.checkpoint_every": 1})
    run_dir = train(cfg)
    rows = read_metrics(run_dir / "metrics.csv")
    assert [r.step for r in rows] == [0.0]


@pytest.mark.parametrize("ratio,d_per_g", [(3, 3.0), (-2, 0.5)])
def test_update_ratio_semantics(tmp_path, ratio, d_per_g):
    cfg = tiny_cfg(tmp_path / f"ratio{ratio}",
                   **{"train.ratio": ratio, "train.steps": 10,
                      "train.checkpoint_every": 10})
    run_dir = train(cfg)
    report = json.loads((run_dir / "report.json").read_text())
    assert report["d_updates"] / report["g_updates"] == d_per_g


def test_train_reproducible(tmp_path, tiny_run):
    second = train(tiny_cfg(tmp_path / "again"))
    assert compare_metrics_csv(tiny_run / "metrics.csv", second / "metrics.csv")
    a = np.load(tiny_run / "checkpoint_000040.npz")
    b = np.load(second / "checkpoint_000040.npz")
    assert np.array_equal(a["theta_g"], b["theta_g"])
    assert np.array_equal(a["theta_d"], b["theta_d"])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_an_overflowing_adam_moment_fails_the_run_before_its_checkpoint(tmp_path,
                                                                       monkeypatch):
    # 1e300 squares to inf in the second moment, while the step it takes stays
    # finite; the run must stop there, not write a checkpoint load_checkpoint rejects
    calls, value_and_grad_d = [], runner.value_and_grad_d

    def overflowing_third_update(*args):
        v, grad = value_and_grad_d(*args)
        calls.append(1)
        if len(calls) == 3:
            grad = grad.copy()
            grad[0] = 1e300
        return v, grad

    cfg = tiny_cfg(tmp_path / "run", **{"train.steps": 4, "train.checkpoint_every": 2})
    monkeypatch.setattr(runner, "value_and_grad_d", overflowing_third_update)
    run_dir = train(cfg)
    report = json.loads((run_dir / "report.json").read_text())
    assert report["failed_at_step"] == 3
    assert report["d_updates"] == report["g_updates"] == 2
    assert [load_checkpoint(path).step for path in report["checkpoints"]] == [0, 2]
    assert [r.step for r in read_metrics(run_dir / "metrics.csv")] == [0.0, 2.0]


def test_every_checkpoint_rescores_to_its_metrics_row(tiny_run):
    # a checkpoint holds everything its scores need: re-scored from disk, each
    # one reproduces the cells train logged for it
    with open(tiny_run / "metrics.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    paths = json.loads((tiny_run / "report.json").read_text())["checkpoints"]
    assert len(rows) == len(paths) == 3
    for row, path in zip(rows, paths):
        ckpt = load_checkpoint(path)
        assert str(ckpt.step) == row["step"]
        gap = gap_cmd(path)
        assert [f"{gap.dg_plain:.12g}", f"{gap.dg_lambda:.12g}"] == [row["dg_plain"],
                                                                     row["dg_lambda"]]
        scores, report = runner.score_checkpoint(ckpt.state, rebuild_splits(ckpt.cfg),
                                                 ckpt.cfg, ckpt.step)
        assert [f"{x:.12g}" for x in scores] == [row["dg_plain"], row["dg_lambda"],
                                                 row["hist_jsd"]]
        assert report == gap == ckpt.gap


def test_train_has_one_update_step_and_only_oracles_bins_histograms():
    train_def = ast.parse(inspect.getsource(runner.train)).body[0]
    nested = [type(node).__name__ for stmt in train_def.body for node in ast.walk(stmt)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                   ast.Nonlocal, ast.Global))]
    assert not nested
    src = Path(runner.__file__).resolve().parents[1]
    callers = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        if "jsd_from_samples" in names:
            callers.append(path.relative_to(src).as_posix())
    assert callers == ["oracles.py"]


def test_checkpoint_roundtrip(tiny_run):
    ckpt = load_checkpoint(tiny_run / "checkpoint_000020.npz")
    assert ckpt.step == 20
    assert ckpt.cfg.seed == 11
    assert len(ckpt.state.theta_d) == ckpt.cfg.d_spec.param_count
    assert ckpt.adam_d.t == 20
    assert (ckpt.adam_d.lr, ckpt.adam_g.lr) == (ckpt.cfg.lr_d, ckpt.cfg.lr_g)
    assert (ckpt.adam_g.beta1, ckpt.adam_g.beta2) == (ckpt.cfg.beta1, ckpt.cfg.beta2)
    # the stored rng cursor is a valid generator state
    from proxgap.diffcore import Rng
    rng = Rng(0)
    rng.state = ckpt.rng_state
    rng.normal(3)


def test_checkpoint_writes_leave_no_temp_files(tiny_run, tmp_path, monkeypatch):
    from proxgap.harness import runner
    ckpt = load_checkpoint(tiny_run / "checkpoint_000020.npz")
    path = runner.save_checkpoint(tmp_path / "checkpoint_000020", ckpt)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint_000020.json",
                                                          "checkpoint_000020.npz"]
    # what load_checkpoint returns saves back to the same bytes
    for suffix in (".npz", ".json"):
        assert path.with_suffix(suffix).read_bytes() == \
            (tiny_run / "checkpoint_000020").with_suffix(suffix).read_bytes()
    again = load_checkpoint(path)
    assert np.array_equal(again.state.theta_d.values, ckpt.state.theta_d.values)
    assert np.array_equal(again.adam_g.v, ckpt.adam_g.v)
    # a write that fails midway leaves neither a temp file nor a partial checkpoint
    def failing_savez(fh, **arrays):
        fh.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(runner.np, "savez", failing_savez)
    with pytest.raises(OSError):
        runner.save_checkpoint(tmp_path / "checkpoint_000040", ckpt)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint_000020.json",
                                                          "checkpoint_000020.npz"]


@pytest.mark.parametrize("name,tamper,expected", [
    ("theta_d", None, "expected shape"),
    ("counters", None, r"expected shape \(3,\)"),
    ("adam_d_m", lambda a: a[:-1], r"adam_d_m.*expected \(\d+,\)"),
    ("adam_g_v", lambda a: np.append(a, 0.0), r"adam_g_v.*expected \(\d+,\)"),
    ("counters", lambda a: a[:2], r"counters.*expected \(3,\)"),
    ("counters", lambda a: a.reshape(3, 1), r"counters.*expected \(3,\)"),
])
def test_load_checkpoint_rejects_missing_and_misshapen_arrays(tiny_run, tmp_path, name,
                                                              tamper, expected):
    src = tiny_run / "checkpoint_000020"
    with np.load(src.with_suffix(".npz")) as blobs:
        arrays = {key: blobs[key] for key in blobs.files}
    if tamper is None:
        del arrays[name]
    else:
        arrays[name] = tamper(arrays[name])
    dst = tmp_path / "checkpoint_000020"
    np.savez(dst.with_suffix(".npz"), **arrays)
    dst.with_suffix(".json").write_bytes(src.with_suffix(".json").read_bytes())
    with pytest.raises(ValueError, match=f"{name}.*{expected}" if tamper is None else expected):
        load_checkpoint(dst.with_suffix(".npz"))


@pytest.mark.parametrize("tamper", [
    lambda names: names[:-1],
    lambda names: names + ["extra"],
    lambda names: names[1:] + names[:1],
    None,
], ids=["dropped", "added", "reordered", "missing"])
def test_load_checkpoint_rejects_a_sidecar_with_other_arrays(tiny_run, tmp_path, tamper):
    src = tiny_run / "checkpoint_000020"
    sidecar = json.loads(src.with_suffix(".json").read_text())
    if tamper is None:
        del sidecar["arrays"]
    else:
        sidecar["arrays"] = tamper(sidecar["arrays"])
    dst = tmp_path / "checkpoint_000020"
    dst.with_suffix(".npz").write_bytes(src.with_suffix(".npz").read_bytes())
    dst.with_suffix(".json").write_text(json.dumps(sidecar))
    with pytest.raises(ValueError, match="sidecar .* lists arrays"):
        load_checkpoint(dst.with_suffix(".npz"))


@pytest.mark.parametrize("keep_gap", [False, True], ids=["no_gap", "gap"])
def test_load_checkpoint_rejects_a_sidecar_of_another_step(tiny_run, tmp_path, capsys,
                                                          keep_gap):
    # the step is written twice, in the sidecar and in the arrays' counters;
    # a sidecar paired with another step's arrays would estimate on that
    # step's stream (or reuse its estimates) at the wrong parameters
    src = tiny_run / "checkpoint_000020"
    sidecar = json.loads(src.with_suffix(".json").read_text())
    sidecar["step"] = 40
    if not keep_gap:
        del sidecar["gap"]
    dst = tmp_path / "checkpoint_000040"
    dst.with_suffix(".npz").write_bytes(src.with_suffix(".npz").read_bytes())
    dst.with_suffix(".json").write_text(json.dumps(sidecar))
    with pytest.raises(ValueError, match="of step 40, its arrays .* of step 20"):
        load_checkpoint(dst.with_suffix(".npz"))
    capsys.readouterr()
    assert main(["gap", "--checkpoint", str(dst.with_suffix(".npz"))]) == 2
    assert capsys.readouterr().err.startswith("error: checkpoint sidecar")


@pytest.mark.parametrize("tamper,message", [
    (lambda sidecar: sidecar.pop("config"), "has no 'config' key"),
    (lambda sidecar: sidecar.pop("step"), "has no 'step' key"),
    (lambda sidecar: sidecar.pop("rng_state"), "has no 'rng_state' key"),
    (lambda sidecar: sidecar.clear() or sidecar.update(items=[1, 2]), "is not a JSON object"),
], ids=["no_config", "no_step", "no_rng_state", "list"])
def test_load_checkpoint_names_what_a_sidecar_lacks(tiny_run, tmp_path, capsys, tamper,
                                                    message):
    src = tiny_run / "checkpoint_000020"
    sidecar = json.loads(src.with_suffix(".json").read_text())
    tamper(sidecar)
    dst = tmp_path / "checkpoint_000020"
    dst.with_suffix(".npz").write_bytes(src.with_suffix(".npz").read_bytes())
    # a list-valued sidecar is written as the JSON list itself
    dst.with_suffix(".json").write_text(json.dumps(sidecar.get("items", sidecar)))
    with pytest.raises(ValueError, match=f"checkpoint sidecar .* {message}"):
        load_checkpoint(dst.with_suffix(".npz"))
    capsys.readouterr()
    assert main(["gap", "--checkpoint", str(dst.with_suffix(".npz"))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint sidecar") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("name,tamper,player", [
    ("adam_d_v", lambda a: a - 1.0, "adam_d"),
    ("adam_g_m", lambda a: np.where(np.arange(a.size) == 2, np.nan, a), "adam_g"),
    ("adam_d_m", lambda a: a + np.inf, "adam_d"),
])
def test_checkpoint_with_bad_adam_moments_is_rejected(tiny_run, tmp_path, capsys, name,
                                                      tamper, player):
    src = tiny_run / "checkpoint_000020"
    with np.load(src.with_suffix(".npz")) as blobs:
        arrays = {key: blobs[key] for key in blobs.files}
    arrays[name] = tamper(arrays[name])
    dst = tmp_path / "checkpoint_000020"
    np.savez(dst.with_suffix(".npz"), **arrays)
    dst.with_suffix(".json").write_bytes(src.with_suffix(".json").read_bytes())
    with pytest.raises(ValueError, match=f"bad {player} state"):
        load_checkpoint(dst.with_suffix(".npz"))
    capsys.readouterr()
    assert main(["gap", "--checkpoint", str(dst.with_suffix(".npz"))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"bad {player} state" in err


# -- gap estimates kept in the sidecar ---------------------------------------

GAP_ESTIMATES = ("v_dw", "v_gw_lambda", "v_gw_plain")


def _hexes(report):
    """Every field of a GapReport and both derived gaps, floats as exact hex."""
    return [getattr(report, f).hex() if isinstance(getattr(report, f), float)
            else getattr(report, f)
            for f in (*report.__dataclass_fields__, "dg_lambda", "dg_plain")]


def _fresh_gap(ckpt, lam=None):
    prox = ckpt.cfg.prox if lam is None else replace(ckpt.cfg.prox, lam=lam)
    return duality_gap(ckpt.state, rebuild_splits(ckpt.cfg), prox,
                       Rng(ckpt.cfg.seed).child(runner._TAG_GAP, ckpt.step))


def _copy_checkpoint(src, dst_dir, edit_gap=None):
    """A copy of checkpoint ``src`` (.npz) in ``dst_dir`` whose sidecar's gap
    block went through ``edit_gap`` (a block it returns None for is dropped)."""
    src = Path(src)
    dst = Path(dst_dir) / src.name
    dst.write_bytes(src.read_bytes())
    sidecar = json.loads(src.with_suffix(".json").read_text())
    gap = sidecar.pop("gap")
    gap = edit_gap(gap) if edit_gap else None
    if gap is not None:
        sidecar["gap"] = gap
    dst.with_suffix(".json").write_text(json.dumps(sidecar, indent=2))
    return dst


class _EstimatorCalls:
    """Counts the estimator calls ``_gap_reports`` makes."""

    def __init__(self, monkeypatch):
        self.calls = dict.fromkeys(GAP_ESTIMATES, 0)
        for name in GAP_ESTIMATES:
            original = getattr(gapmetrics, f"estimate_{name}")

            def counted(*args, _name=name, _original=original, **kwargs):
                self.calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(gapmetrics, f"estimate_{name}", counted)

    def take(self):
        calls, self.calls = self.calls, dict.fromkeys(GAP_ESTIMATES, 0)
        return calls


def test_every_checkpoint_sidecar_keeps_a_fresh_estimate(tiny_run):
    # train writes the estimates it scored each checkpoint with; a fresh
    # estimate on the reloaded state and the run's splits gives the same bits
    paths = json.loads((tiny_run / "report.json").read_text())["checkpoints"]
    assert len(paths) == 3
    for path in paths:
        ckpt = load_checkpoint(path)
        fresh = _fresh_gap(ckpt)
        digest = hashlib.sha256(ckpt.state.theta_d.values.tobytes()
                                + ckpt.state.theta_g.values.tobytes()).hexdigest()
        block = json.loads(Path(path).with_suffix(".json").read_text())["gap"]
        assert block == {"revision": ESTIMATE_REVISION, "params_sha256": digest,
                         **{name: getattr(fresh, name).hex() for name in GAP_ESTIMATES}}
        assert _hexes(ckpt.gap) == _hexes(fresh)


# Estimates of tiny_run's initial checkpoint per ESTIMATE_REVISION.  A change
# that moves them bumps the revision in the same edit and adds its row here,
# so sidecars written before it are recomputed rather than reused.
GOLDEN_INITIAL_ESTIMATES = {
    1: ["-0x1.62a61dca0b144p+0", "-0x1.5ff847207ad64p+0", "-0x1.8416c60bcf26dp+0"],
}


def test_estimate_revision_names_the_estimates_it_stores(tiny_run):
    block = json.loads((tiny_run / "checkpoint_000000.json").read_text())["gap"]
    assert (block["revision"], [block[name] for name in GAP_ESTIMATES]) == \
        (ESTIMATE_REVISION, GOLDEN_INITIAL_ESTIMATES[ESTIMATE_REVISION])


def test_gap_and_sweep_reuse_give_the_bytes_of_a_recomputation(tiny_run, tmp_path):
    for step in (0, 20, 40):
        path = tiny_run / f"checkpoint_{step:06d}.npz"
        (tmp_path / str(step)).mkdir()
        bare = _copy_checkpoint(path, tmp_path / str(step))
        assert load_checkpoint(bare).gap is None
        for lam in (None, 0.1, 0.0, 1.0, 1e6):
            assert _hexes(gap_cmd(path, lam=lam)) == _hexes(gap_cmd(bare, lam=lam))
        lams = [1e6, 0.1, 0.0, 0.01]
        reused = lambda_sweep_cmd(path, lams, tmp_path / f"reused_{step}.csv")
        again = lambda_sweep_cmd(bare, lams, tmp_path / f"again_{step}.csv")
        assert reused.read_bytes() == again.read_bytes()


def test_reuse_runs_only_the_estimates_the_sidecar_lacks(tiny_run, tmp_path, monkeypatch):
    path = tiny_run / "checkpoint_000040.npz"
    lam = load_checkpoint(path).cfg.prox.lam
    calls = _EstimatorCalls(monkeypatch)
    none = dict.fromkeys(GAP_ESTIMATES, 0)
    gap_cmd(path)
    assert calls.take() == none
    gap_cmd(path, lam=lam)
    assert calls.take() == none
    gap_cmd(path, lam=1.0)
    assert calls.take() == {**none, "v_gw_lambda": 1}
    lams = [0.01, lam, 1.0, 1e6]
    lambda_sweep_cmd(path, lams, tmp_path / "sweep.csv")
    assert calls.take() == {**none, "v_gw_lambda": len(lams) - 1}
    bare = _copy_checkpoint(path, tmp_path)
    gap_cmd(bare)
    assert calls.take() == dict.fromkeys(GAP_ESTIMATES, 1)
    lambda_sweep_cmd(bare, lams, tmp_path / "bare_sweep.csv")
    assert calls.take() == {"v_dw": 1, "v_gw_lambda": len(lams), "v_gw_plain": 1}


def test_a_sweep_estimates_a_repeated_lambda_once(tiny_run, tmp_path, monkeypatch):
    bare = _copy_checkpoint(tiny_run / "checkpoint_000040.npz", tmp_path)
    calls = _EstimatorCalls(monkeypatch)
    out = tmp_path / "repeated.csv"
    assert main(["lambda-sweep", "--checkpoint", str(bare), "--lambda", "0.1,0.1",
                 "--out", str(out)]) == 0
    assert calls.take() == dict.fromkeys(GAP_ESTIMATES, 1)
    header, *rows = list(csv.reader(out.open(encoding="utf-8")))
    report = _fresh_gap(load_checkpoint(bare), lam=0.1)
    assert rows == [[f"{x:.12g}" for x in (0.1, report.v_dw, report.v_gw_lambda,
                                           report.dg_lambda, report.dg_plain)]] * 2


@pytest.mark.parametrize("edit,message", [
    (lambda b: {**b, "params_sha256": "0" * 64}, "params_sha256 does not match"),
    (lambda b: {**b, "v_dw": float("nan").hex()}, "non-finite gap estimate"),
    (lambda b: {**b, "v_gw_plain": "-inf"}, "non-finite gap estimate"),
    (lambda b: {k: v for k, v in b.items() if k != "v_gw_lambda"}, "gap fields"),
    (lambda b: {**b, "extra": 1}, "gap fields"),
    (lambda b: {**b, "v_dw": -1.25}, "not a hex float"),
    (lambda b: {**b, "v_gw_lambda": "0x1p99999"}, "not a hex float"),
    (lambda b: {k: v for k, v in b.items() if k != "revision"}, "integer revision"),
    (lambda b: {**b, "revision": True}, "integer revision"),
    (lambda b: [b], "integer revision"),
], ids=["digest", "nan", "inf", "missing", "extra", "number", "overflow", "no-revision",
        "bool-revision", "not-a-dict"])
def test_a_bad_gap_block_is_rejected(tiny_run, tmp_path, capsys, edit, message):
    path = _copy_checkpoint(tiny_run / "checkpoint_000020.npz", tmp_path, edit)
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)
    capsys.readouterr()
    assert main(["gap", "--checkpoint", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("edit", [
    None,
    lambda b: {**b, "revision": ESTIMATE_REVISION + 1},
    lambda b: {"revision": ESTIMATE_REVISION - 1, "params_sha256": "stale", "v_dw": 0},
], ids=["no-block", "newer-revision", "older-revision"])
def test_a_missing_or_stale_gap_block_is_recomputed(tiny_run, tmp_path, monkeypatch, edit):
    path = _copy_checkpoint(tiny_run / "checkpoint_000020.npz", tmp_path, edit)
    ckpt = load_checkpoint(path)
    assert ckpt.gap is None
    calls = _EstimatorCalls(monkeypatch)
    assert _hexes(gap_cmd(path)) == _hexes(_fresh_gap(ckpt))
    assert calls.take() == dict.fromkeys(GAP_ESTIMATES, 2)  # gap_cmd and the fresh estimate


def test_a_failed_estimate_leaves_no_gap_block(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise gapmetrics.ProxDivergenceError("diverged")

    monkeypatch.setattr(runner, "duality_gap", failing)
    run_dir = train(tiny_cfg(tmp_path / "run", **{"train.steps": 0,
                                                  "train.checkpoint_every": 1}))
    row, = read_metrics(run_dir / "metrics.csv")
    assert np.isnan(row.dg_plain) and np.isnan(row.dg_lambda)
    assert "gap" not in json.loads((run_dir / "checkpoint_000000.json").read_text())
    monkeypatch.undo()
    ckpt = load_checkpoint(run_dir / "checkpoint_000000.npz")
    assert ckpt.gap is None
    assert _hexes(gap_cmd(run_dir / "checkpoint_000000.npz")) == _hexes(_fresh_gap(ckpt))
    # a checkpoint refuses a report of another lambda or stream, or a non-finite one
    fresh = _fresh_gap(ckpt)
    inf = float("inf")
    for other in (_fresh_gap(ckpt, lam=1.0), replace(fresh, seed=fresh.seed + 1),
                  replace(fresh, v_dw=inf), replace(fresh, v_gw_plain=-inf)):
        with pytest.raises(ValueError, match="only a finite gap report of its own"):
            runner.save_checkpoint(tmp_path / "checkpoint_000000", replace(ckpt, gap=other))
    assert not list(tmp_path.glob("checkpoint_000000.*"))


def test_build_state_takes_the_runs_splits():
    cfg = tiny_cfg("unused")
    _, splits = runner.build_state(cfg, Rng(cfg.seed + 1))
    again = rebuild_splits(cfg)
    for name in ("s_a", "s_b", "s_c"):
        assert np.array_equal(getattr(splits, name), getattr(again, name))


def test_gap_cmd_on_checkpoint(tiny_run):
    report = gap_cmd(tiny_run / "checkpoint_000040.npz")
    assert report.dg_lambda == report.v_dw - report.v_gw_lambda
    override = gap_cmd(tiny_run / "checkpoint_000040.npz", lam=1.0)
    assert override.lam == 1.0


# -- sweeps -------------------------------------------------------------


def test_lambda_sweep_cmd_sorted_and_deterministic(tiny_run, tmp_path):
    out1 = lambda_sweep_cmd(tiny_run / "checkpoint_000040.npz", [1.0, 0.01, 0.1],
                            tmp_path / "sweep1.csv")
    out2 = lambda_sweep_cmd(tiny_run / "checkpoint_000040.npz", [0.01, 0.1, 1.0],
                            tmp_path / "sweep2.csv")
    lines1 = out1.read_text().splitlines()
    lines2 = out2.read_text().splitlines()
    assert lines1 == lines2
    lams = [float(line.split(",")[0]) for line in lines1[1:]]
    assert lams == sorted(lams) == [0.01, 0.1, 1.0]


def test_lambda_sweep_rejects_empty(tiny_run):
    with pytest.raises(ValueError):
        lambda_sweep_cmd(tiny_run / "checkpoint_000040.npz", [], None)


def test_lambda_sweep_missing_checkpoint(tmp_path):
    with pytest.raises(FileNotFoundError):
        lambda_sweep_cmd(tmp_path / "nope.npz", [0.1], None)


def test_ratio_sweep_single_ratio(tmp_path):
    cfg = tiny_cfg(tmp_path / "unused")
    out = ratio_sweep_cmd(cfg, [2], tmp_path / "ratio_sweep")
    lines = out.read_text().splitlines()
    assert lines[0] == "n,dg_lambda,hist_jsd,status"
    assert len(lines) == 2
    n, dg_lam, hist, status = lines[1].split(",")
    assert n == "2" and status == "ok"
    # the row equals the final metrics of the equivalent plain run
    run_rows = read_metrics(tmp_path / "ratio_sweep" / "ratio_+2" / "metrics.csv")
    assert float(dg_lam) == pytest.approx(run_rows[-1].dg_lambda, abs=1e-12)
    assert float(hist) == pytest.approx(run_rows[-1].hist_jsd, abs=1e-12)


def test_ratio_sweep_rejects_zero(tmp_path):
    cfg = tiny_cfg(tmp_path / "unused2")
    with pytest.raises(ValueError):
        ratio_sweep_cmd(cfg, [0, 1], tmp_path / "rs")


# -- correlation ---------------------------------------------------------


def test_pearson_exact_linearity():
    assert pearson_r([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson_r([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)


def test_pearson_rejects_constant_and_short():
    with pytest.raises(ValueError):
        pearson_r([1, 1, 1], [2, 4, 6])
    with pytest.raises(ValueError):
        pearson_r([1, 2], [2, 4])


def test_correlate_counts_and_excludes(tmp_path):
    path = tmp_path / "metrics.csv"
    header = "step,v_d,v_g,dg_plain,dg_lambda,hist_jsd,wallclock_ms"
    rows = [
        "0,0,0,1.0,1.0,0.9,1",
        "1,0,0,0.8,0.7,0.6,2",
        "2,0,0,nan,nan,0.5,3",
        "3,0,0,0.5,0.4,0.3,4",
        "4,0,0,0.2,0.1,0.1,5",
    ]
    path.write_text("\n".join([header] + rows) + "\n")
    report = correlate(path)
    assert report.rows_used == 4
    assert report.rows_excluded == 1
    assert -1.0 <= report.r_dg_lambda <= 1.0


def test_correlate_needs_three_rows(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("step,v_d,v_g,dg_plain,dg_lambda,hist_jsd,wallclock_ms\n"
                    "0,0,0,1,1,1,1\n1,0,0,2,2,2,2\n")
    with pytest.raises(ValueError):
        correlate(path)


# -- cli ------------------------------------------------------------------


def test_cli_train_and_gap(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(TINY)
    out_dir = tmp_path / "cli_run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "metrics.csv").exists()
    assert main(["gap", "--checkpoint", str(out_dir / "checkpoint_000040.npz")]) == 0
    assert main(["probe", "--checkpoint", str(out_dir / "checkpoint_000040.npz"),
                 "--kind", "spectrum", "--k", "2"]) == 0
    assert (out_dir / "checkpoint_000040_spectrum.json").exists()
    payload = json.loads((out_dir / "checkpoint_000040_spectrum.json").read_text())
    assert len(payload["eigenvalues"]) == 2
    assert isinstance(payload["nash_consistent"], bool)


def test_cli_deviation_zero_steps(tmp_path, tiny_run):
    out = tmp_path / "dev.csv"
    assert main(["probe", "--checkpoint", str(tiny_run / "checkpoint_000040.npz"),
                 "--kind", "deviation", "--steps", "0", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2  # header + initial point


def test_cli_unknown_probe_kind_is_usage_error(tiny_run):
    with pytest.raises(SystemExit):
        main(["probe", "--checkpoint", str(tiny_run / "checkpoint_000040.npz"),
              "--kind", "teleport"])


def test_cli_rejects_a_nonfinite_lambda(tiny_run, capsys):
    ckpt = str(tiny_run / "checkpoint_000040.npz")
    assert main(["gap", "--checkpoint", ckpt, "--lambda", "nan"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("lr", ["-0.05", "0", "nan", "inf"])
def test_cli_rejects_a_deviation_rate_that_cannot_descend(tmp_path, tiny_run, capsys, lr):
    out = tmp_path / "dev.csv"
    assert main(["probe", "--checkpoint", str(tiny_run / "checkpoint_000040.npz"),
                 "--kind", "deviation", "--steps", "5", f"--lr={lr}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lr must be positive and finite") and err.count("\n") == 1
    assert not out.exists()


def test_cli_rejects_a_negative_deviation_eval_interval(tmp_path, tiny_run, capsys):
    # --eval-every 0 records the start only; a negative interval is an error
    out = tmp_path / "dev.csv"
    assert main(["probe", "--checkpoint", str(tiny_run / "checkpoint_000040.npz"),
                 "--kind", "deviation", "--eval-every", "-3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: eval_every must be nonnegative, got -3\n"
    assert not out.exists()


@pytest.mark.parametrize("kind, flags, named", [
    ("spectrum", ["--lr=-1", "--steps", "-5"], "--steps, --lr"),
    ("spectrum", ["--k", "1", "--eval-every", "3"], "--eval-every"),
    ("deviation", ["--k", "1"], "--k"),
    ("deviation", ["--steps", "5", "--agent", "discriminator"], "--agent"),
])
def test_cli_probe_rejects_the_other_kinds_flags(tmp_path, tiny_run, capsys, kind, flags, named):
    ckpt = tiny_run / "checkpoint_000040.npz"
    out = tmp_path / "probe.out"
    before = sorted(tiny_run.iterdir())
    assert main(["probe", "--checkpoint", str(ckpt), "--kind", kind, *flags,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --kind {kind} does not take {named}\n"
    assert not out.exists() and sorted(tiny_run.iterdir()) == before


def _checkpoint_with(tmp_path, cfg, theta_d, theta_g):
    """A step-0 checkpoint of ``cfg`` holding the given parameter values."""
    from proxgap.diffcore import Rng, adam_init
    from proxgap.harness import runner
    state, _ = runner.build_state(cfg, Rng(cfg.seed))
    state = state.with_params(state.theta_d.with_values(theta_d),
                              state.theta_g.with_values(theta_g))
    return str(runner.save_checkpoint(tmp_path / "checkpoint_000000", runner.Checkpoint(
        cfg, state, adam_init(len(theta_d), cfg.lr_d), adam_init(len(theta_g), cfg.lr_g),
        0, Rng(0).state)))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cli_names_an_estimator_failure_without_a_traceback(tmp_path, capsys):
    # a discriminator that overflows the kernel's first matmul
    cfg = tiny_cfg(tmp_path / "unused")
    path = _checkpoint_with(tmp_path, cfg, np.full(cfg.d_spec.param_count, 1e308),
                            np.zeros(cfg.g_spec.param_count))
    for argv in (["gap", "--checkpoint", path],
                 ["lambda-sweep", "--checkpoint", path, "--lambda", "0.1"],
                 ["probe", "--checkpoint", path, "--kind", "spectrum", "--k", "1"],
                 ["probe", "--checkpoint", path, "--kind", "deviation", "--steps", "0"]):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: non-finite values produced by op 'matmul'\n"


def _overflowing_linear_checkpoint(tmp_path, worst_iters):
    """A linear WGAN critic at weight 1 against a linear generator at 1e300."""
    cfg = config_from_text(TINY + "objective.kind = wgan_clip\nobjective.clip = 1e306\n"
                                  f"disc.hidden =\ngen.hidden =\nprox.worst_iters = {worst_iters}\n")
    return _checkpoint_with(tmp_path, cfg, np.ones(cfg.d_spec.param_count),
                            np.full(cfg.g_spec.param_count, 1e300))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cli_names_the_inner_step_of_a_diverged_ascent(tmp_path, capsys):
    # linear nets: the critic's first ascent step on 1e300-scale generated rows
    # lands on a weight that overflows the next step's matmul; with no search
    # step, the inner ascent on the evaluation split is the first to run into it
    path = _overflowing_linear_checkpoint(tmp_path, 0)
    assert main(["gap", "--checkpoint", path]) == 1
    assert capsys.readouterr().err == (
        "error: penalized ascent diverged at inner step 1: "
        "non-finite values produced by op 'matmul'\n")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cli_names_a_search_step_whose_adam_moment_overflows(tmp_path, capsys):
    # the v_dw search's gradient on the same rows squares to inf in Adam's
    # second moment: the search stops there, named, instead of freezing the
    # coordinate and going on
    path = _overflowing_linear_checkpoint(tmp_path, 2)
    assert main(["gap", "--checkpoint", path]) == 1
    assert capsys.readouterr().err == "error: non-finite values produced by op 'adam'\n"


def test_cli_missing_config_reports_error(tmp_path):
    assert main(["train", "--config", str(tmp_path / "absent.txt")]) == 2


def test_cli_empty_lambda_list_is_usage_error(tiny_run):
    with pytest.raises(SystemExit):
        main(["lambda-sweep", "--checkpoint",
              str(tiny_run / "checkpoint_000040.npz"), "--lambda", ""])


def test_cli_ratio_sweep_accepts_negative_ratios(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(TINY)
    out_dir = tmp_path / "ratios"
    assert main(["ratio-sweep", "--config", str(cfg_path), "--ratios", "-1,1",
                 "--out", str(out_dir)]) == 0
    lines = (out_dir / "ratio_sweep.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["-1", "1"]
