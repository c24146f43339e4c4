"""The byte-identity contract: for a fixed config and seed, every report and
table the CLI writes stays byte-identical unless a change says why.

report_digests.json holds the sha256 of each artifact of all eight
experiments at 3 members and seed 11, with and without --oracle, and of the
runs report_digests.EXTRA_RUNS adds. The rerun takes about 2 s and names
the runs whose bytes moved.
"""

import report_digests


def test_reports_match_the_recorded_digests():
    recorded = report_digests.load()
    moved = report_digests.differences(recorded["digests"], report_digests.compute())
    here = report_digests.environment()
    assert not moved, (
        f"artifacts moved ({'; '.join(moved)}). Recorded with numpy {recorded['numpy']} "
        f"on {recorded['platform']}; this run has numpy {here['numpy']} on {here['platform']}. "
        f"If the move is intended, rewrite the file with `{report_digests.WRITE_COMMAND}` "
        "and say why in CHANGES.md."
    )
