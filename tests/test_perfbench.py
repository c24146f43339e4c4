"""The benchmark's tracer, run against the package as it stands.

perfbench's traced run checks that its tracer sees every call of the traced
kernels (the self-test's exact span counts) and that a traced pass computes
what an untraced one does. Both are checked here too, so that a change that
moves a pinned count or breaks a traced kernel's contract fails in the test
suite rather than in a benchmark run.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("grid-qv", "variation", "certify", "distances")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    # the tracer keeps one span stack, so traced passes run on one thread
    monkeypatch.setenv("PWCALC_THREADS", "1")
    import tracer
    import worker
    import workloads

    tr = tracer.Tracer()
    tr.install()
    try:
        yield tr, worker, workloads
    finally:
        tr.enabled = False
        tr.uninstall()


def test_tracer_self_test_and_traced_passes(bench):
    tr, worker, workloads = bench
    assert worker._selftest(tr, 7) == []
    for name in WORKLOADS:
        w = workloads.build(name, 7)
        digests = []
        for traced in (False, True):
            tr.reset()
            tr.enabled = traced
            try:
                outputs = workloads.run_pass(w)
            finally:
                tr.enabled = False
            parts, ok = workloads.check(w, outputs)
            assert ok, name
            digests.append(workloads.pass_digest(parts))
        assert digests[0] == digests[1], name
        assert tr.calls["harness.run"] > 0, name
