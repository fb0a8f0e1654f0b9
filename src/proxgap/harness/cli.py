"""Command-line interface: train, gap, lambda-sweep, ratio-sweep, correlate, probe."""

from __future__ import annotations

import argparse
import json
import sys

from ..diffcore import NonFiniteError
from .config import ConfigError, load_config, with_overrides
from .runner import (
    correlate,
    gap_cmd,
    lambda_sweep_cmd,
    probe_cmd,
    ratio_sweep_cmd,
    train,
)

# matches the published sweep range endpoints
DEFAULT_LAMBDA_GRID = "0.01,0.1,1,10,100,1000000"
DEFAULT_RATIOS = ",".join(str(n) for n in range(-10, 11) if n != 0)
# the probe_cmd keywords each probe kind takes
PROBE_FLAGS = {"deviation": ("steps", "lr", "eval_every"), "spectrum": ("k", "agent")}


def _csv_floats(text: str):
    toks = [t for t in text.split(",") if t.strip()]
    if not toks:
        raise argparse.ArgumentTypeError("expected a non-empty comma-separated list")
    return [float(t) for t in toks]


def _csv_ints(text: str):
    toks = [t for t in text.split(",") if t.strip()]
    if not toks:
        raise argparse.ArgumentTypeError("expected a non-empty comma-separated list")
    return [int(t) for t in toks]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxgap",
        description="Train small adversarial generators on synthetic data and "
                    "monitor convergence with plain and penalized duality gaps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the alternating training loop")
    p_train.add_argument("--config", required=True, help="flat key=value config file")
    p_train.add_argument("--seed", type=int, help="override the config seed")
    p_train.add_argument("--out", help="override the output run directory")

    p_gap = sub.add_parser("gap", help="estimate both duality gaps at a checkpoint")
    p_gap.add_argument("--checkpoint", required=True)
    p_gap.add_argument("--lambda", dest="lam", type=float,
                       help="override the penalty weight")
    p_gap.add_argument("--out", help="also write the report as JSON")

    p_sweep = sub.add_parser("lambda-sweep",
                             help="estimate the penalized gap across a lambda grid")
    p_sweep.add_argument("--checkpoint", required=True)
    p_sweep.add_argument("--lambda", dest="lambdas", type=_csv_floats,
                         default=_csv_floats(DEFAULT_LAMBDA_GRID),
                         help=f"comma-separated grid (default {DEFAULT_LAMBDA_GRID})")
    p_sweep.add_argument("--out", help="output CSV path")

    p_ratio = sub.add_parser("ratio-sweep",
                             help="train once per update ratio and tabulate finals")
    p_ratio.add_argument("--config", required=True)
    p_ratio.add_argument("--ratios", type=_csv_ints,
                         default=_csv_ints(DEFAULT_RATIOS),
                         help="comma-separated nonzero ratios (default -10..10)")
    p_ratio.add_argument("--seed", type=int)
    p_ratio.add_argument("--out", required=True, help="sweep output directory")

    p_corr = sub.add_parser("correlate",
                            help="Pearson r between gap and divergence trajectories")
    p_corr.add_argument("metrics_csv")

    p_probe = sub.add_parser("probe", help="deviation or spectrum probe at a checkpoint")
    p_probe.add_argument("--checkpoint", required=True)
    p_probe.add_argument("--kind", required=True, choices=["deviation", "spectrum"])
    # no defaults here: a flag left out takes probe_cmd's default, and a flag
    # given to the kind that does not take it is an error
    p_probe.add_argument("--k", type=int, help="spectrum: eigenvalues to extract (default 5)")
    p_probe.add_argument("--agent", choices=["generator", "discriminator"],
                         help="spectrum: probed agent (default generator)")
    p_probe.add_argument("--steps", type=int, help="deviation: steps (default 200)")
    p_probe.add_argument("--lr", type=float, help="deviation: step size (default 1e-3)")
    p_probe.add_argument("--eval-every", type=int,
                         help="deviation: steps between evaluations (default 20)")
    p_probe.add_argument("--out")
    return parser


def _join_ratio_value(argv):
    # argparse mistakes a leading-dash value like "-2,1" for an option; fold
    # it into the flag so both "--ratios -2,1" and "--ratios=-2,1" work
    if argv is None:
        return None
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--ratios" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--ratios={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_ratio_value(argv))
    try:
        if args.command == "train":
            cfg = load_config(args.config)
            overrides = {}
            if args.seed is not None:
                overrides["seed"] = args.seed
            if args.out is not None:
                overrides["out"] = args.out
            if overrides:
                cfg = with_overrides(cfg, **overrides)
            run_dir = train(cfg)
            print(f"run complete: {run_dir}")
        elif args.command == "gap":
            report = gap_cmd(args.checkpoint, lam=args.lam)
            payload = {
                "v_dw": report.v_dw,
                "v_gw_lambda": report.v_gw_lambda,
                "dg_lambda": report.dg_lambda,
                "v_gw_plain": report.v_gw_plain,
                "dg_plain": report.dg_plain,
                "lambda": report.lam,
            }
            text = json.dumps(payload, indent=2)
            print(text)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
        elif args.command == "lambda-sweep":
            out = lambda_sweep_cmd(args.checkpoint, args.lambdas, args.out)
            print(f"wrote {out}")
        elif args.command == "ratio-sweep":
            cfg = load_config(args.config)
            if args.seed is not None:
                cfg = with_overrides(cfg, seed=args.seed)
            out = ratio_sweep_cmd(cfg, args.ratios, args.out)
            print(f"wrote {out}")
        elif args.command == "correlate":
            report = correlate(args.metrics_csv)
            print(json.dumps({
                "r_dg_lambda_vs_jsd": report.r_dg_lambda,
                "r_dg_plain_vs_jsd": report.r_dg_plain,
                "rows_used": report.rows_used,
                "rows_excluded": report.rows_excluded,
            }, indent=2))
        elif args.command == "probe":
            given = {name: getattr(args, name) for names in PROBE_FLAGS.values()
                     for name in names if getattr(args, name) is not None}
            foreign = [name for name in given if name not in PROBE_FLAGS[args.kind]]
            if foreign:
                raise ValueError(f"--kind {args.kind} does not take " + ", ".join(
                    "--" + name.replace("_", "-") for name in foreign))
            out = probe_cmd(args.checkpoint, args.kind, out=args.out, **given)
            print(f"wrote {out}")
    except (ConfigError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NonFiniteError as err:  # names the op, and a diverged inner ascent its step
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
