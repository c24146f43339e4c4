"""sha256 of every artifact the CLI writes, for a fixed small run of each experiment.

Each of the eight experiments runs at its preset with 3 members and seed 11,
once without and once with `--oracle`; two more runs cover what the presets
miss (EXTRA_RUNS). The digests of `report.json` and of
every table CSV are kept in report_digests.json, beside the numpy version and
the platform that wrote them; `run_metadata.json` holds wall-clock and is left
out.
test_report_digests.py compares a fresh run with the file.

    python3 tests/report_digests.py           # print what differs from the file
    python3 tests/report_digests.py --write   # rewrite the file from this tree

A change that moves a report rewrites the file and says why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

DIGEST_FILE = Path(__file__).resolve().with_name("report_digests.json")
WRITE_COMMAND = "python3 tests/report_digests.py --write"
MEMBERS = 3
SEED = 11
# (key, experiment, settings replaced in its preset): a threshold that stops
# the sandwich inside a segment, so a partial run's hit times are solved; and
# ttv-converge on members short enough that several share a sweep block
EXTRA_RUNS = (
    ("sandwich threshold=0.5", "sandwich", {"threshold": 0.5}),
    ("ttv-converge step=2^-11", "ttv-converge", {"step": 2.0**-11}),
)


def environment() -> dict:
    return {"numpy": np.__version__, "platform": f"{sys.platform}-{platform.machine()}"}


def compute() -> dict:
    """{"<run key>": {artifact file name: sha256}} from this tree."""
    from pwcalc.harness import EXPERIMENTS, default_config, run

    runs = [(name + (" --oracle" if oracle else ""), name, {"oracle": oracle})
            for name in EXPERIMENTS for oracle in (False, True)]
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key, name, settings in [*runs, *EXTRA_RUNS]:
            preset, settings = default_config(name), dict(settings)
            if "step" in settings:
                step = settings.pop("step")
                settings["generator"] = dataclasses.replace(preset.generator, step=step)
            out = Path(tmp) / key.replace(" ", "")
            cfg = dataclasses.replace(
                preset, seed=SEED, ensemble_size=MEMBERS, output_dir=str(out), **settings
            )
            run(cfg)
            digests[key] = {
                f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in sorted(out.iterdir())
                if f.name != "run_metadata.json"
            }
    return digests


def load() -> dict:
    return json.loads(DIGEST_FILE.read_text())


def differences(recorded: dict, digests: dict) -> list:
    """One line per run whose artifacts or digests differ from the record."""
    lines = []
    for key in sorted(recorded.keys() | digests.keys()):
        want, got = recorded.get(key, {}), digests.get(key, {})
        moved = sorted(f for f in want.keys() | got.keys() if want.get(f) != got.get(f))
        if moved:
            lines.append(f"{key}: {', '.join(moved)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {DIGEST_FILE.name}")
    args = parser.parse_args(argv)
    digests = compute()
    if args.write:
        doc = {**environment(), "members": MEMBERS, "seed": SEED, "digests": digests}
        DIGEST_FILE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {DIGEST_FILE}")
        return 0
    moved = differences(load()["digests"], digests)
    print("\n".join(moved) if moved else "all reports match")
    return 1 if moved else 0


if __name__ == "__main__":
    # the tree's own package, installed or not
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
