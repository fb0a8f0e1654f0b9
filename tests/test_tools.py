"""The scripts under tools/, each run as a command in its own process."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / script), *args],
                          capture_output=True, text=True, timeout=300, check=True)
    return done.stdout


def test_src_lines_total_is_the_sum_of_its_modules():
    out = _run("src_lines.py")
    assert out.count("\n") == 1
    counts = json.loads(out)
    total, physical = counts.pop("total"), counts.pop("physical")
    runtime = counts.pop("runtime")
    assert counts and all(name.endswith(".py") for name in counts)
    assert "proxgap/diffcore/network.py" in counts
    assert total == sum(counts.values()) and 0 < total < physical
    # the runtime is the command-line interface's imports, which leave out
    # the graph engine
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    loaded = src_lines.runtime_modules(ROOT / "src")
    assert "proxgap/harness/cli.py" in loaded and "proxgap/diffcore/network.py" in loaded
    assert set(loaded) < set(counts) and "proxgap/diffcore/engine.py" not in loaded
    assert runtime == sum(counts[name] for name in loaded) < total


def test_src_lines_leaves_no_bytecode_in_the_tree_it_counts(tmp_path):
    # its import of the command-line interface writes no __pycache__ into
    # the checkout it counts, which may be one about to be timed
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    counts = json.loads(_run("src_lines.py", str(tmp_path)))
    assert 0 < counts["runtime"] < counts["total"]
    assert not list((tmp_path / "src").rglob("__pycache__"))


def test_the_workflow_runs_the_roadmaps_tier1_command():
    # read as plain text: the workflow must hold the command verbatim as a run: line
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap, re.M).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert f"run: {command}" in [line.strip() for line in workflow.splitlines()]


def test_the_workflow_runs_the_benchmark_self_test_after_the_tier1_tests():
    # the self-test only runs perfbench/selftest.py; its step follows the Tier-1 one
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    runs = [line.strip() for line in workflow.splitlines() if line.strip().startswith("run: ")]
    tier1 = next(i for i, line in enumerate(runs) if "pytest" in line)
    assert "run: python3 perfbench/selftest.py" in runs[tier1 + 1:]


def test_kernel_timings_prints_one_line_per_activation_and_row_count():
    out = _run("kernel_timings.py", "--cycle", "1", "--passes", "1")
    assert out.count("\n") == 1
    report = json.loads(out)
    assert (report["cycle"], report["passes"]) == (1, 1)
    assert sorted(report["timings"]) == sorted(
        f"{activation}/{rows}" for activation in ("leaky_relu", "tanh")
        for rows in (128, 768, 3000))
    for key, entry in report["timings"].items():
        want = {"forward", "backward"} | ({"gate", "former_gate"} if "leaky" in key else set())
        assert set(entry) == want | {"workspace_bytes"}
        for name in want:
            assert 0 < entry[name]["best_us"] <= entry[name]["median_us"]
        # the 32-32 critic: its pre-activations, one work buffer and its ones,
        # and for leaky ReLU the hidden masks and gates
        rows = int(key.split("/")[1])
        gated = 9 * rows * 64 if "leaky" in key else 0
        assert entry["workspace_bytes"] == 8 * rows * (65 + 32 + 1) + gated
    # the toy block: microseconds per inner step and per Adam search step,
    # one entry per shipped game
    assert sorted(report["toy"]) == ["bilinear", "concave_quadratic", "saddle_shift"]
    for entry in report["toy"].values():
        assert set(entry) == {"inner_step", "search_step"}
        for timing in entry.values():
            assert set(timing) == {"median_us", "best_us"}
            assert 0 < timing["best_us"] <= timing["median_us"]


def test_fingerprints_of_every_workload_operation_without_an_error():
    prints = json.loads(_run("fingerprints.py", str(ROOT), "5"))
    assert len(prints) == 27
    assert {key.split("/")[0] for key in prints} == {"desk_session", "critic_train",
                                                    "toy_oracles"}
    assert not [key for key, value in prints.items() if value.startswith("error")]
