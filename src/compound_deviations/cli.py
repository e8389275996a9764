"""Command-line front end.

One subcommand per experiment kind plus ``defaults``::

    compdev rate-eval     --config cfg.json [--out DIR] [--workers K]
    compdev ldp-check     --config cfg.json [--seed N] ...
    compdev md-check      --config cfg.json ...
    compdev moments-check --config cfg.json ...
    compdev clt-check     --config cfg.json ...
    compdev ml-eval       --config cfg.json | --nu NU --beta B --x X [--x X ...]
    compdev defaults

Exit codes: 0 when every acceptance band passes (or the experiment has
none), 1 when a band fails, 2 on configuration errors and the package's
typed runtime errors, 3 on any other exception (an internal error, reported
on one line with its type). ``--seed``
overrides the config's experiment seed before validation, so a config that
omits the seed can still be run reproducibly from the command line.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import DEFAULTS, EXPERIMENTS, decode_config, normalize_config
from .errors import CompoundDeviationsError, ConfigError
from .experiments import run_experiment


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="compdev",
        description="Deviation-regime diagnostics for random-size sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in EXPERIMENTS:
        p = sub.add_parser(command, help=f"run a {command} experiment")
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument(
            "--seed", type=int, help="seed override for the experiment block"
        )
        p.add_argument(
            "--workers", type=int,
            help="sampling threads (default 1)",
        )
        if command == "ml-eval":
            p.add_argument("--nu", type=float, help="order of the function")
            p.add_argument("--beta", type=float, help="second parameter")
            p.add_argument(
                "--x", type=float, action="append",
                help="evaluation point (repeatable)",
            )
    sub.add_parser("defaults", help="print the documented defaults as JSON")
    return parser


def _load_raw_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"config: cannot read {path!r} ({exc})"])
    return decode_config(text)


def _resolve_config(args):
    if args.command == "ml-eval" and args.config is None:
        direct = {"nu": args.nu, "beta": args.beta, "x_values": args.x}
        missing = [k for k, v in direct.items() if v is None]
        if missing:
            raise ConfigError(
                ["config: give --config, or all of --nu, --beta, and --x "
                 f"(missing: {', '.join(m.replace('x_values', 'x') for m in missing)})"]
            )
        data = {"experiment": {"kind": "ml-eval", **direct}}
    elif args.config is None:
        raise ConfigError(["config: --config is required"])
    else:
        data = _load_raw_config(args.config)

    if args.seed is not None:
        if not isinstance(data, dict):
            raise ConfigError(["config: must be a JSON object"])
        experiment = data.setdefault("experiment", {})
        if isinstance(experiment, dict):
            experiment["seed"] = args.seed
    config = normalize_config(data)
    if config["experiment"]["kind"] != args.command:
        raise ConfigError(
            [f"experiment.kind: config declares "
             f"'{config['experiment']['kind']}' but the subcommand is "
             f"'{args.command}'"]
        )
    return config


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "defaults":
        print(json.dumps(DEFAULTS, indent=2, sort_keys=True))
        return 0

    try:
        config = _resolve_config(args)
        code, summary = run_experiment(config, out_dir=args.out,
                                       workers=args.workers)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return 2
    except CompoundDeviationsError as exc:
        kind = type(exc)
        print(f"error [{kind.__module__}.{kind.__name__}]: {exc}",
              file=sys.stderr)
        return 2
    except Exception as exc:
        # Not one of the package's typed errors: a bug, never a band verdict.
        print(f"error [internal] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    for band in summary["bands"]:
        status = "pass" if band["pass"] else "FAIL"
        print(f"{status}: {band['name']}")
    if summary["bands"]:
        print("result: " + ("all bands passed" if code == 0 else "band failure"))
    for name in summary["outputs"]:
        print(f"wrote {name}")
    return code


if __name__ == "__main__":
    sys.exit(main())
