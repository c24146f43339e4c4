"""The benchmark's tracer, run against the package as it stands.

perfbench's traced run checks that its tracer sees every call of the traced
kernels (the self-test's exact span counts) and that a traced pass computes
what an untraced one does. Both are checked here too, so that a change that
moves a pinned count or breaks a traced kernel's contract fails in the test
suite rather than in a benchmark run. Each workload's pass digest at seed 7
is pinned as well: the bench's outputs are part of the byte-identity
contract.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
# pass digests at seed 7
DIGESTS = {
    "grid-qv": "a136a7f3bb01c4120b9d94b2828457c4776c17aa02d4468f19be4c54b8193c9d",
    "variation": "76ff78961ab33516d08c1bb09bcf87d2a78ac6058ac54f838039a5948de3cd15",
    "certify": "976c4bcf1eba6392281ecb25742a27215ff1bf8ad1eb3df9579832cf9e58b1b5",
    "distances": "4bfc9b8ebdeba6c87274d90786613a7c5ea22effe697a825f2c4d6e3e85703f6",
}


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
    for name in DIGESTS:
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
        assert digests == [DIGESTS[name]] * 2, name
        assert tr.calls["harness.run"] > 0, name
