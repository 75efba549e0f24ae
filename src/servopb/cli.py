"""Command-line front end: one subcommand per pipeline stage.

Success prints a one-line JSON summary to stdout and exits 0; any
pipeline failure prints a JSON error report to stderr and exits
nonzero, so scripts can branch on structured output instead of
scraping log text.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bench
from .bench import Preset, StageError, load_scenario_arg

__all__ = ["build_parser", "main"]


_SHARED_DEFAULTS = {"scenario": None, "seed": 0, "out": None,
                    "preset": "smoke", "quiet": False}


def _shared_flags() -> argparse.ArgumentParser:
    # SUPPRESS defaults let the flags sit before or after the subcommand
    # without the subparser's copy clobbering an already parsed value.
    p = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    p.add_argument("--scenario", help="scenario YAML (default: packaged scenario)")
    p.add_argument("--seed", type=int, help="root seed for the run (default: 0)")
    p.add_argument("--out", help="run directory (required)")
    p.add_argument("--preset",
                   help="preset name from the scenario (default: smoke)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress lines")
    return p


def build_parser() -> argparse.ArgumentParser:
    shared = _shared_flags()
    ap = argparse.ArgumentParser(
        prog="servopb",
        description="Staged visual-servoing experiments on the simulated arm",
        parents=[shared])
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("collect", parents=[shared],
                   help="collect the episode corpus")
    sub.add_parser("train-codec", parents=[shared],
                   help="train the autoencoder and encode episodes")
    sub.add_parser("train", parents=[shared],
                   help="train the predictor and PB table")

    adapt = sub.add_parser("adapt", parents=[shared],
                           help="online PB adaptation in one body state")
    adapt.add_argument("--state", required=True,
                       help="grid state name, or 'a~b' for a midpoint state")
    adapt.add_argument("--episodes", type=int, default=3)
    adapt.add_argument("--object", default="L-25", dest="object_name")

    ev = sub.add_parser("eval", parents=[shared],
                        help="run the grasp-trial grid")
    ev.add_argument("--states", default=None,
                    help="comma-separated states (default: preset states)")
    ev.add_argument("--objects", default=None,
                    help="comma-separated objects (default: preset objects)")
    ev.add_argument("--trials", type=int, default=None,
                    help="trials per cell (default: preset eval_trials)")
    ev.add_argument("--modes", default="correct,wrong,baseline",
                    help="comma-separated from: correct,wrong,online,baseline")
    ev.add_argument("--name", default="outcomes.csv",
                    help="output CSV name under eval/")

    sub.add_parser("plotdata", parents=[shared],
                   help="export plot-ready CSV bundles")
    return ap


def _fail(report: dict, code: int) -> int:
    print(json.dumps(report, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name, default in _SHARED_DEFAULTS.items():
        if not hasattr(args, name):
            setattr(args, name, default)
    if args.out is None:
        return _fail({"error": "BadArgument",
                      "message": "--out is required"}, 2)
    for flag in ("episodes", "trials"):
        n = getattr(args, flag, None)
        if n is not None and n < 1:
            return _fail({"error": "BadArgument",
                          "message": f"--{flag} must be at least 1, got {n}"}, 2)
    progress = None if args.quiet else lambda msg: print(msg, flush=True)
    try:
        sc, sc_path = load_scenario_arg(args.scenario)
        if args.command == "plotdata":
            report = bench.stage_plotdata(args.out)
            print(json.dumps(report, sort_keys=True))
            return 0
        preset = Preset.from_scenario(sc, args.preset)
        if args.command == "collect":
            entry = bench.stage_collect(args.out, sc, args.seed, preset,
                                        scenario_path=sc_path, progress=progress)
            summary = {"stage": "collect", "episodes": entry["episodes"],
                       "checksum": entry["checksum"]}
        elif args.command == "train-codec":
            entry = bench.stage_codec(args.out, sc, args.seed, preset,
                                      scenario_path=sc_path, progress=progress)
            summary = {"stage": "train-codec", "checksum": entry["checksum"],
                       "final_loss": entry["final_loss"]}
        elif args.command == "train":
            entry = bench.stage_train(args.out, sc, args.seed, preset,
                                      scenario_path=sc_path, progress=progress)
            summary = {"stage": "train", "checksum": entry["checksum"],
                       "final_loss": entry["final_loss"]}
        elif args.command == "adapt":
            payload = bench.stage_adapt(args.out, sc, args.seed, args.state,
                                        n_episodes=args.episodes,
                                        object_name=args.object_name,
                                        scenario_path=sc_path,
                                        progress=progress)
            summary = {"stage": "adapt", "state": payload["state"],
                       "p_final": payload["p_final"],
                       "nearest": payload["nearest"]}
        else:      # eval; argparse enforces the choices
            states = (args.states.split(",") if args.states
                      else list(preset.states))
            objects = (args.objects.split(",") if args.objects
                       else list(preset.objects))
            trials = args.trials if args.trials is not None else preset.eval_trials
            modes = tuple(args.modes.split(","))
            bad = [m for m in modes if m not in bench.EVAL_MODES]
            if bad:
                return _fail({"error": "BadArgument",
                              "message": f"unknown modes: {bad}",
                              "known": list(bench.EVAL_MODES)}, 2)
            entry = bench.stage_eval(args.out, sc, args.seed, states=states,
                                     objects=objects, trials=trials,
                                     modes=modes, out_name=args.name,
                                     scenario_path=sc_path, progress=progress)
            summary = {"stage": "eval", "csv": args.name,
                       "checksum": entry["checksum"]}
    except StageError as err:
        return _fail({"error": "StageError", **err.report}, 2)
    except Exception as err:   # surface anything else in machine form
        return _fail({"error": type(err).__name__, "message": str(err)}, 1)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
