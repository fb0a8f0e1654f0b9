import json

import numpy as np
import pytest

from proxgap.gapmetrics import ProximalConfig
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
    train,
    with_overrides,
)
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


def test_checkpoint_roundtrip(tiny_run):
    ckpt = load_checkpoint(tiny_run / "checkpoint_000020.npz")
    assert ckpt.step == 20
    assert ckpt.cfg.seed == 11
    assert len(ckpt.state.theta_d) == ckpt.cfg.d_spec.param_count
    assert ckpt.adam_d_t == 20
    # the stored rng cursor is a valid generator state
    from proxgap.diffcore import Rng
    rng = Rng(0)
    rng.state = ckpt.rng_state
    rng.normal(3)


def test_checkpoint_writes_leave_no_temp_files(tiny_run, tmp_path, monkeypatch):
    from proxgap.diffcore import AdamState
    from proxgap.harness import runner
    ckpt = load_checkpoint(tiny_run / "checkpoint_000020.npz")
    adam_d = AdamState(ckpt.adam_d_m, ckpt.adam_d_v, ckpt.adam_d_t, 1e-3)
    adam_g = AdamState(ckpt.adam_g_m, ckpt.adam_g_v, ckpt.adam_g_t, 1e-3)
    path = runner.save_checkpoint(tmp_path / "checkpoint_000020", ckpt.cfg, ckpt.state,
                                  adam_d, adam_g, 20, ckpt.rng_state)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint_000020.json",
                                                          "checkpoint_000020.npz"]
    again = load_checkpoint(path)
    assert np.array_equal(again.state.theta_d.values, ckpt.state.theta_d.values)
    assert np.array_equal(again.adam_g_v, ckpt.adam_g_v)
    # a write that fails midway leaves neither a temp file nor a partial checkpoint
    def failing_savez(fh, **arrays):
        fh.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(runner.np, "savez", failing_savez)
    with pytest.raises(OSError):
        runner.save_checkpoint(tmp_path / "checkpoint_000040", ckpt.cfg, ckpt.state,
                               adam_d, adam_g, 40, ckpt.rng_state)
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
    return str(runner.save_checkpoint(
        tmp_path / "checkpoint_000000", cfg, state, adam_init(len(theta_d), cfg.lr_d),
        adam_init(len(theta_g), cfg.lr_g), 0, Rng(0).state))


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cli_names_the_inner_step_of_a_diverged_ascent(tmp_path, capsys):
    # linear nets: the critic's first ascent step on 1e300-scale generated rows
    # lands on a weight that overflows the next step's matmul
    cfg = config_from_text(TINY + "objective.kind = wgan_clip\nobjective.clip = 1e306\n"
                                  "disc.hidden =\ngen.hidden =\nprox.worst_iters = 2\n")
    path = _checkpoint_with(tmp_path, cfg, np.ones(cfg.d_spec.param_count),
                            np.full(cfg.g_spec.param_count, 1e300))
    assert main(["gap", "--checkpoint", path]) == 1
    assert capsys.readouterr().err == (
        "error: penalized ascent diverged at inner step 1: "
        "non-finite values produced by op 'matmul'\n")


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
