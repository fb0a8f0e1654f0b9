#!/usr/bin/env python3
"""Benchmark for proxgap: monitored training, checkpoint analysis and the exact oracles.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk_session --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

``--workload`` is one of desk_session, critic_train, toy_oracles, or ``all``
(each workload in its own process, one after the other).  The run repeats
whole rounds of the workload's operations for ``--seconds`` seconds, checks
the outputs outside the timed region, and prints one JSON object as its last
line.  With ``--trace 0`` it holds the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced rounds and holds the per-layer metrics.
"""

import os

# One BLAS/OpenMP thread, set in this process's own environment before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
NAMES = ("desk_session", "critic_train", "toy_oracles")
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be in [0, 2**63)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- context ---------------------------------------------------------------


def context() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": commit,
        "src_lines": src_lines,
    }


# -- set-up ----------------------------------------------------------------


def setup_seconds(workload: str, seed: int) -> list:
    """Fresh interpreters that import the library and build the inputs, each
    timed in seconds at the reference speed that it measured itself."""
    import pace

    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, check=True, timeout=120, capture_output=True,
                              text=True)
        wall = time.perf_counter() - start
        ref = float(proc.stdout.split()[-1])
        times.append((wall - 5 * ref) * pace.REF_S / ref)
    return times


# -- measurement -------------------------------------------------------------


def measure(workload, seconds: float, work_dir: Path, tracer=None):
    """Run whole rounds until ``seconds`` have passed; compare every round with the first.

    Returns the rounds, the first round's records (kept on disk in
    ``round0`` for the full checks), per-round lists of failed operations,
    per-round determinism mismatches, and the traced passes.  Untraced runs
    sample the machine's speed while they go (see ``pace.py``) and give each
    operation its time at the reference speed in ``Round.scaled``; traced
    runs scale each round by the speed measured just before and after it.
    """
    import pace
    import workloads

    rounds, failed, mismatched, passes = [], [], [], []
    ref_prints, ref_records = {}, {}
    pacer = None if tracer else pace.Pacer()
    if pacer:
        pacer.start()
    try:
        start = time.monotonic()
        k = 0
        while k == 0 or time.monotonic() - start < seconds or (tracer and len(passes) == 0):
            rdir = work_dir / f"round{k}"
            rdir.mkdir(parents=True)
            traced = tracer is not None and k % 2 == 1
            rnd = workloads.Round()
            ref_before = None if pacer else pace.reference_s()
            if traced:
                tracer.install()
                try:
                    workload.run_round(rnd, rdir)
                finally:
                    tracer.uninstall()
                passes.append((k, tracer.take_pass()))
            else:
                workload.run_round(rnd, rdir)
            if not pacer:
                # traced runs keep probes out of the spans: scale whole rounds
                # by the reference speed measured on either side
                scale = pace.REF_S * 2.0 / (ref_before + pace.reference_s())
                rnd.scaled = {name: sec * scale for name, sec in rnd.seconds.items()}
            bad, differ = dict(rnd.errors), []
            for name, output in rnd.outputs.items():
                if name in rnd.errors:
                    digest = "error:" + rnd.errors[name]
                else:
                    rec = workload.record(name, output, rdir)
                    digest = workloads.fingerprint(rec)
                    msgs = workload.failures(name, rec)
                    if msgs:
                        bad[name] = "; ".join(msgs)
                    elif k == 0:
                        ref_records[name] = rec
                if k == 0:
                    ref_prints[name] = digest
                elif digest != ref_prints.get(name):
                    differ.append(name)
                    bad.setdefault(name, "output differs from the first round")
            rounds.append(rnd)
            failed.append(bad)
            mismatched.append(differ)
            if k > 0:
                shutil.rmtree(rdir)
            k += 1
    finally:
        if pacer:
            pacer.stop()
    if pacer:
        for rnd in rounds:
            rnd.scaled = {name: pacer.scaled(*rnd.intervals[name]) if name in rnd.intervals
                          else 0.0 for name in rnd.seconds}
    return rounds, ref_records, failed, mismatched, passes


def layer_metrics(tracer, passes, rounds) -> dict:
    """The per-layer metrics: medians over traced passes of per-pass values."""
    import tracing

    rows = []
    for k, (spans, counts, notes) in passes:
        calls, incl, self_ms, layer_self = tracing.summarize_pass(tracer.names, tracer.layer_of,
                                                                spans)
        steps = notes.get("prox_steps", 0)
        flops = notes.get("prox_flops", 0.0)
        v_gw_ms = incl["gapmetrics.estimate_v_gw_lambda"]
        saves = calls["harness.save_checkpoint"]
        row = {
            "diffcore.tensor_nodes": counts.get("diffcore.tensor_nodes", 0),
            "gapmetrics.prox_steps": steps,
            "gapmetrics.prox_step_flops": flops / steps if steps else 0.0,
            "gapmetrics.prox_step_us": v_gw_ms * 1e3 / steps if steps else 0.0,
            "gapmetrics.prox_gflop_s": flops / (v_gw_ms * 1e6) if v_gw_ms else 0.0,
            "gapmetrics.sweep_redundant_estimates": tracing.redundant_sweep_estimates(
                tracer.names, spans),
            "oracles.toy_value.calls": counts.get("oracles.toy_value", 0),
            "harness.train.self_ms": self_ms["harness.train"],
            "harness.checkpoints": saves,
            "harness.checkpoint_bytes": notes.get("checkpoint_bytes", 0) / saves if saves else 0,
            "pass_ms": rounds[k].total_s * 1e3,
        }
        for name in tracer.names:
            row[f"{name}.calls"] = calls[name]
            row[f"{name}.ms"] = incl[name]
        for layer in tracing.LAYERS:
            row[f"{layer}.self_ms"] = layer_self[layer]
        rows.append(row)
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "proxgap" / "__init__.py").is_file():
        print(f"error: no proxgap sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    import workloads

    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(extra_modules=("workloads",))
    try:
        rounds, records, failed, mismatched, passes = measure(
            workload, args.seconds, work_dir, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_msgs = workload.check(records, work_dir / "round0")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    # an operation whose first-round output fails a check fails in every
    # round that reproduced that output
    correct = True
    for name, msgs in check_msgs.items():
        for msg in msgs:
            print(f"CHECK FAILED {args.workload} {name}: {msg}")
            correct = False
        if msgs:
            for bad, differ in zip(failed, mismatched):
                if name not in differ:
                    bad.setdefault(name, "; ".join(msgs))
    for k, differ in enumerate(mismatched):
        for name in differ:
            print(f"NOT DETERMINISTIC {args.workload} round {k} {name}")
            correct = False
    for k, bad in enumerate(failed):
        for name, why in bad.items():
            print(f"FAILED {args.workload} round {k} {name}: {why}")
    attempted = sum(len(r.outputs) for r in rounds)
    n_failed = sum(len(b) for b in failed)

    print("context " + json.dumps(context(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations attempted, {n_failed} failed")
    if args.trace:
        values = layer_metrics(tracer, passes, rounds)
        untraced = [r.scaled_s for k, r in enumerate(rounds) if k % 2 == 0]
        traced = [r.scaled_s for k, r in enumerate(rounds) if k % 2 == 1]
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        pass_ms = values["pass_ms"]
        for layer in tracing.LAYERS:
            print(f"share {layer} self {values[f'{layer}.self_ms'] / pass_ms:.1%} of the pass")
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(
            str(OUT / f"spans-{args.workload}-seed{args.seed}.csv"), tracer.names,
            [spans for _, (spans, _, _) in passes])
        wanted = spec["per_layer"]
    else:
        print("round_wall_s " + " ".join(f"{r.total_s:.4f}" for r in rounds))
        print("round_s " + " ".join(f"{r.scaled_s:.4f}" for r in rounds))
        for name, value, unit in workload.phases(rounds):
            print(f"phase {name} = {value:.6g} {unit}")
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(r.scaled_s for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": n_failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each reports its own peak memory."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
