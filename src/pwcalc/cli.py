"""Command line entry point.

    pwcalc <experiment> [--config file.json] [--seed N] [--out DIR]
                        [--strict-mc] [--oracle]

Without --config the experiment runs with its preset configuration; a config
file is an ExperimentConfig JSON document, versioned by schema_version
(ExperimentConfig.to_json_dict writes one). --seed sets the experiment's one
seed: member i is the generator at seed + i, so a generator seed in a config
file is replaced by the config's seed. The overrides are applied at once.
isometry-mc joins the samples of its wiener members by Brownian bridges,
resolved on its check grid 2^-m_hi; no config field sets this.

`pwcalc <experiment> --help` names the fields of the config the experiment
reads, from harness's experiment table. A config that sets any other
experiment field to a value other than its default is refused. A config file
that cannot be read, is malformed or is refused, and an override that is out
of range, stop the command with one line naming the file or the override. A
run that would pass a resource limit, such as the stops a grid may yield,
stops it with one line naming the experiment and the limit.

--out DIR writes report.json, run_metadata.json and one CSV per result
table. Exit status is nonzero when any pathwise check fails; --strict-mc
promotes statistical warnings to failures as well.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .harness import _EXPERIMENT_TABLE, ExperimentConfig, default_config, run
from .paths import ResourceLimitError


# the command-line option behind each ExperimentConfig field it overrides,
# with the option's argparse settings
_OPTIONS = {
    "seed": ("--seed", {"type": int, "help": "override the config seed"}),
    "output_dir": ("--out", {"metavar": "DIR", "help": "output directory for report and tables"}),
    "strict_mc": ("--strict-mc", {"action": "store_true",
                                  "help": "treat statistical warnings as failures"}),
    "oracle": ("--oracle", {"action": "store_true", "help": "enable brute-force cross-checks"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwcalc",
        description="pathwise stochastic calculus experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, row in _EXPERIMENT_TABLE.items():
        p = sub.add_parser(
            name,
            help=f"run the {name} experiment",
            description=f"Run the {name} experiment. It reads the config fields "
            f"{', '.join(row.reads)}; a config that sets another experiment field "
            "off its default is refused.",
        )
        p.add_argument("--config", help="JSON config file; preset used if omitted")
        # an override is stored under its field, and only when it is given
        for field, (option, settings) in _OPTIONS.items():
            p.add_argument(option, dest=field, default=argparse.SUPPRESS, **settings)
    return parser


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    updates = {name: getattr(args, name) for name in _OPTIONS if hasattr(args, name)}
    source = args.config
    try:  # malformed JSON is a ValueError too
        if args.config:
            with open(args.config) as fh:
                cfg = ExperimentConfig.from_json_dict(json.load(fh))
            if cfg.experiment != args.experiment:
                raise SystemExit(
                    f"config is for {cfg.experiment!r}, command line says {args.experiment!r}"
                )
        else:
            cfg = default_config(args.experiment)
        source = " ".join(_OPTIONS[name][0] for name in updates)
        return dataclasses.replace(cfg, **updates)
    except OSError as exc:  # only opening or reading the config file raises it
        raise SystemExit(f"{args.config}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise SystemExit(f"{source}: {exc}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = load_config(args)
    try:
        report = run(cfg)
    except ResourceLimitError as exc:
        raise SystemExit(f"{cfg.experiment}: {exc}") from None
    for c in report.checks:
        status = "PASS" if c.passed else ("FAIL" if c.kind == "pathwise" else "WARN")
        if not c.passed and cfg.strict_mc:
            status = "FAIL"
        print(f"[{status}] {c.kind:11s} {c.name}")
    bad = not report.pathwise_ok or (cfg.strict_mc and not report.all_ok)
    if cfg.output_dir:
        print(f"report written to {cfg.output_dir}/report.json")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
