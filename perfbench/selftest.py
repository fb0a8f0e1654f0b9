#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

Runs two rounds of every workload on two seeds, asserts that the rounds agree
bit for bit and pass every check, then feeds each check a perturbed copy of a
real output and asserts that the check flags it.  Run from the checkout root:

    python3 perfbench/selftest.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)


def one_round(workload, rdir: Path) -> dict:
    rdir.mkdir(parents=True)
    rnd = workloads.Round()
    workload.run_round(rnd, rdir)
    assert not rnd.errors, rnd.errors
    recs = {name: workload.record(name, out, rdir) for name, out in rnd.outputs.items()}
    for name, rec in recs.items():
        assert not workload.failures(name, rec), (name, workload.failures(name, rec))
    return recs


def flags(label: str, msgs: list):
    assert msgs, f"check missed: {label}"
    print(f"flagged  {label}: {msgs[0]}")


def passes(label: str, msgs):
    assert not msgs, f"{label}: {msgs}"


def desk_perturbations(w, recs, rdir):
    step = w.cfg.total_steps
    train = recs["train"]
    pert = copy.deepcopy(train)
    pert["metrics"][0][2] += 1e-6
    flags("V at step 0 moved by 1e-6", checks.check_train(w.pairs, pert, 2))
    pert = copy.deepcopy(train)
    pert["report"]["d_updates"] += 1
    flags("one extra discriminator update", checks.check_train(w.pairs, pert, 2))
    pert = copy.deepcopy(train)
    pert["metrics"][-1][4] = pert["metrics"][-1][3] + 0.1
    flags("logged dg_lambda above dg_plain", checks.check_train(w.pairs, pert, 2))
    pert = copy.deepcopy(train)
    pert["metrics"][1][3] = float("nan")
    flags("nan gap cell", checks.train_failures(pert))
    pert = copy.deepcopy(train)
    pert["report"]["failed_at_step"] = 7
    flags("failed_at_step set", checks.train_failures(pert))

    msgs, v0 = w.check_final_value(w.final_checkpoint(rdir / "run"))
    passes("eval_objective", msgs)
    flags("eval_objective off by 1e-6", checks.check_eval_objective(v0 + 1e-6, v0))

    gap = recs["gap_cmd"]
    for key, shift in (("v_gw_plain", 0.1 + (v0 - gap["v_gw_plain"])),
                       ("dg_lambda", 0.1 + (gap["dg_plain"] - gap["dg_lambda"]))):
        pert = dict(gap, **{key: gap[key] + shift})
        flags(f"gap {key} shifted past its bound", checks.check_gap(pert, v0))

    rows = recs["lambda_sweep_cmd"]
    lam = w.cfg.prox.lam
    flags("reordered sweep", checks.check_sweep(rows[::-1], w.LAMBDAS, gap, lam))
    pert = copy.deepcopy(rows)
    pert[-1][3] += 0.1
    flags("dg_lambda(1e6) shifted by 0.1", checks.check_sweep(pert, w.LAMBDAS, gap, lam))
    pert = copy.deepcopy(rows)
    pert[1][3] = pert[0][3] - 0.1
    flags("sweep gap falling with lambda", checks.check_sweep(pert, w.LAMBDAS, gap, lam))
    flags("sweep row disagrees with gap command",
          checks.check_sweep(rows, w.LAMBDAS, dict(gap, v_dw=gap["v_dw"] + 1e-6), lam))

    real = checks.eval_split(w.pairs)
    latent = checks.gap_latent(w.pairs, workloads._TAG_PROBE, step, real.shape[0])
    arrays = train["checkpoints"][step]
    v_probe = checks.game_value(w.pairs, arrays["theta_d"], arrays["theta_g"], real, latent)
    trace = recs["probe_deviation"]
    passes("deviation", checks.check_deviation(trace, v_probe))
    pert = copy.deepcopy(trace)
    pert[-1][1] = pert[-2][1] + 0.1
    flags("deviation trace rising at its end", checks.check_deviation(pert, v_probe))
    flags("deviation trace off its start", checks.check_deviation(trace, v_probe + 1e-6))


def critic_perturbations(w, recs, rdir):
    train = recs["train"]
    pert = copy.deepcopy(train)
    pert["checkpoints"][w.cfg.total_steps]["theta_d"][3] = 2.0 * w.cfg.objective.clip
    flags("critic weight outside the clip box", checks.check_train(w.pairs, pert, 5))
    pert = copy.deepcopy(train)
    pert["report"]["g_updates"] += 1
    flags("d_updates != 5 g_updates", checks.check_train(w.pairs, pert, 5))


def toy_perturbations(w, recs, rdir):
    i = next(k for k, c in enumerate(w.configs) if c[0].name == "bilinear")
    est, plain, lam = (recs[f"{op}/{i}"] for op in ("duality_gap", "grid_dg", "grid_dg_lambda"))
    for key in ("dg_plain", "dg_lambda"):
        flags(f"toy {key} shifted by 0.1",
              checks.check_toy_estimate(dict(est, **{key: est[key] + 0.1}), plain, lam))
    _, d, g, _ = w.configs[i]
    exact_plain, exact_lam = checks.bilinear_gaps(d[0], g[0], w.CFG.lam)
    flags("grid plain gap shifted by 0.1",
          checks.check_bilinear_grid(plain + 0.1, exact_plain, "plain"))
    flags("grid proximal gap shifted by 0.1",
          checks.check_bilinear_grid(lam + 0.1, exact_lam, "proximal"))
    p, q = w.kl_pairs[0]
    flags("KL shifted by 1e-3", checks.check_kl(recs["numeric_fdiv/0"] + 1e-3, p, q))
    p, q = w.jsd_pairs[0]
    flags("JSD shifted by 1e-3", checks.check_jsd(recs["numeric_jsd/0"] + 1e-3, p, q,
                                                  w.BOX, w.RESOLUTION))


PERTURB = {"desk_session": desk_perturbations, "critic_train": critic_perturbations,
           "toy_oracles": toy_perturbations}


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT))
    try:
        for name, cls in workloads.WORKLOADS.items():
            for seed in SEEDS:
                w = cls(seed)
                first = one_round(w, work / f"{name}-{seed}-a")
                second = one_round(w, work / f"{name}-{seed}-b")
                for op, rec in first.items():
                    assert workloads.fingerprint(rec) == workloads.fingerprint(second[op]), \
                        f"{name} seed {seed}: {op} differs between rounds"
                for op, msgs in w.check(first, work / f"{name}-{seed}-a").items():
                    passes(f"{name} seed {seed} {op}", msgs)
                print(f"ok       {name} seed {seed}: two rounds identical, every check passes")
                if seed == SEEDS[0]:
                    PERTURB[name](w, first, work / f"{name}-{seed}-a")
        rec = {"v": 1.0, "rows": [[0.5, 2.0]]}
        pert = {"v": float(np.nextafter(1.0, 2.0)), "rows": [[0.5, 2.0]]}
        assert workloads.fingerprint(rec) != workloads.fingerprint(pert), "fingerprint missed 1 ulp"
        print("flagged  determinism: one ulp changes the fingerprint")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
