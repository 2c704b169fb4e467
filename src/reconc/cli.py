"""Command-line entry points: reconcile, score, demo, hierarchy."""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .errors import ReconcError
from .hierarchy import build_temporal_hierarchy


def _factors(text: str) -> list[int]:
    """The integers of a comma-separated list; empty items are skipped."""
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reconc",
        description="Probabilistic reconciliation of count forecasts over "
                    "temporal hierarchies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser("reconcile", help="run one reconciliation method on base forecasts")
    p_rec.add_argument("--config", required=True, help="experiment config JSON")
    p_rec.add_argument("--quiet", action="store_true", help="suppress tables")

    p_score = sub.add_parser("score", help="score reconciled outputs against actuals")
    p_score.add_argument("--config", required=True, help="experiment config JSON")
    p_score.add_argument("--quiet", action="store_true", help="suppress tables")

    p_demo = sub.add_parser("demo", help="run a built-in worked example")
    p_demo.add_argument("name", choices=harness.DEMO_NAMES)
    p_demo.add_argument("--out", default=None, help="output directory (default demo_<name>)")
    p_demo.add_argument("--seed", type=int, default=None,
                        help="sampler seed (default: RECONC_SEED or 0)")
    p_demo.add_argument("--quiet", action="store_true", help="suppress tables")

    p_h = sub.add_parser("hierarchy", help="print the summing matrix of a temporal hierarchy")
    p_h.add_argument("--bottom", type=int, required=True, help="bottom period count")
    p_h.add_argument("--factors", type=_factors, required=True,
                     help="comma-separated aggregation factors, e.g. 2,3,4,6,12")
    p_h.add_argument("--json", action="store_true", dest="as_json",
                     help="print the hierarchy as JSON instead of the S matrix")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reconcile":
            cfg = harness.load_config(args.config)
            harness.run_reconcile(cfg, quiet=args.quiet)
        elif args.command == "score":
            cfg = harness.load_config(args.config)
            harness.run_score(cfg, quiet=args.quiet)
        elif args.command == "demo":
            harness.demo(args.name, out_dir=args.out, seed=args.seed, quiet=args.quiet)
        elif args.command == "hierarchy":
            h = build_temporal_hierarchy(args.bottom, args.factors)
            if args.as_json:
                print(json.dumps(h.to_dict()))
            else:
                print(f"n={h.n} m={h.m} labels: {' '.join(h.node_labels)}")
                for row in h.s_matrix:
                    print(" ".join(str(int(v)) for v in row))
    except ReconcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
