"""Certified maximal inequalities for discrete sequences and sampled paths."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pwcalc import (
    DiscreteSequence,
    GridSpec,
    PathGeneratorConfig,
    certificate_p,
    certificate_p1,
    certify_path,
    generate,
    lebesgue_sequence,
    qv_at,
)
from pwcalc import bdg, harness

SQ2 = math.sqrt(2.0)

_walks = st.lists(st.floats(-10, 10), min_size=1, max_size=40).map(
    lambda v: np.cumsum(np.asarray(v))
)


def test_discrete_sequence_caches():
    s = DiscreteSequence(np.asarray([0.0, 1.0, 0.0]))
    assert np.array_equal(s.bracket, [0.0, 1.0, 2.0])
    assert np.array_equal(s.abs_max, [0.0, 1.0, 1.0])
    assert len(s) == 3
    with pytest.raises(ValueError):
        DiscreteSequence(np.asarray([np.inf]))
    with pytest.raises(ValueError):
        DiscreteSequence(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        DiscreteSequence(np.asarray([], dtype=float))


def test_bracket_counts_the_initial_value():
    s = DiscreteSequence(np.asarray([2.0, 3.0]))
    assert np.array_equal(s.bracket, [4.0, 5.0])
    assert np.array_equal(s.abs_max, [2.0, 3.0])


def test_p1_certificate_zigzag():
    cert = certificate_p1(np.asarray([0.0, 1.0, 0.0]))
    assert cert.p == 1.0 and cert.cp == 6.0
    assert np.allclose(cert.h, [0.0, 1.0 / SQ2, 0.0], atol=1e-15)
    assert np.allclose(cert.hx, [0.0, 0.0, -1.0 / SQ2], atol=1e-15)
    assert np.array_equal(cert.lhs1, [0.0, 1.0, 1.0])
    assert np.allclose(cert.rhs1, [0.0, 6.0, 5.0 * SQ2], atol=1e-12)
    assert np.allclose(cert.lhs2, [0.0, 1.0, SQ2], atol=1e-15)
    assert np.allclose(cert.rhs2, [0.0, 3.0, 3.0 + 1.0 / SQ2], atol=1e-12)
    assert cert.holds1 and cert.holds2 and cert.holds


def test_p2_certificate_single_step():
    cert = certificate_p(np.asarray([0.0, 1.0]), 2.0)
    assert cert.cp == 36.0
    assert np.allclose(cert.f, [0.0, 2.0 * SQ2], atol=1e-12)
    assert np.allclose(cert.g, [0.0, 2.0 * SQ2], atol=1e-12)
    assert np.array_equal(cert.fx, [0.0, 0.0])
    assert np.array_equal(cert.gx, [0.0, 0.0])
    assert cert.holds


@pytest.mark.parametrize(
    "p,cp", [(1.5, 6.0**1.5 * 0.5**0.5), (2.0, 36.0), (3.0, 864.0)]
)
def test_cp_constant(p, cp):
    cert = certificate_p(np.asarray([0.0, 1.0, -1.0]), p)
    assert cert.cp == pytest.approx(cp, rel=1e-15)


def test_bdg_constant():
    assert bdg.bdg_constant(1.0) == 6.0
    assert bdg.bdg_constant(2.0) == 36.0
    with pytest.raises(ValueError):
        bdg.bdg_constant(0.5)
    # C_p overflows a float as a product at 120 and as a power at 500
    for p in (120.0, 500.0):
        with pytest.raises(ValueError, match=f"p = {p}"):
            bdg.bdg_constant(p)


def test_certificate_p_requires_p_above_one():
    with pytest.raises(ValueError):
        certificate_p(np.asarray([0.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        certificate_p(np.asarray([0.0, 1.0]), 0.5)


def test_degenerate_sequences():
    z = certificate_p1(np.zeros(4))
    assert np.array_equal(z.h, np.zeros(4)) and z.holds
    one = certificate_p1(np.asarray([5.0]))
    assert one.holds and np.array_equal(one.hx, [0.0])
    assert certificate_p(np.asarray([5.0]), 3.0).holds


@given(x=_walks)
@settings(max_examples=80)
def test_p1_holds_on_random_walks(x):
    assert certificate_p1(x).holds


@given(x=_walks, p=st.sampled_from([1.5, 2.0, 3.0]))
@settings(max_examples=80, deadline=None)
def test_p_above_one_holds_on_random_walks(x, p):
    assert certificate_p(x, p).holds


@given(x=_walks, lam=st.floats(0.01, 100))
@settings(max_examples=40)
def test_p1_weights_scale_invariant(x, lam):
    # lam * x is a scaled copy of x only if no nonzero entry underflows
    y = lam * x
    assume(not np.any((x != 0.0) & (np.abs(y) < np.finfo(np.float64).tiny)))
    a = certificate_p1(x)
    b = certificate_p1(lam * x)
    assert np.allclose(b.h, a.h, atol=1e-9)


def _fg_dense(p, s):
    """The p > 1 weights from the whole K x K matrix e[k, l] at once."""
    x, br = s.x, s.bracket
    n = x.size
    xm1 = np.concatenate(([0.0], x[:-1]))  # x_{l-1}
    brm1 = np.concatenate(([0.0], br[:-1]))  # [x]_{l-1}
    # windowed max_{l<=m<=k} (x_m - x_{l-1})^2 via a masked running max over k
    sq = (x[:, None] - xm1[None, :]) ** 2
    mask = np.arange(n)[:, None] >= np.arange(n)[None, :]
    sq = np.where(mask, sq, -np.inf)
    wmax = np.maximum.accumulate(sq, axis=0)
    numer = x[:, None] - xm1[None, :]
    den = np.sqrt(br[:, None] - brm1[None, :] + wmax, where=mask, out=np.zeros_like(sq))
    e = np.divide(numer, den, out=np.zeros_like(sq), where=(den > 0.0) & mask)
    a, b = bdg._shift_weights(p, s)
    return (p * p) * (e @ a), (p * p) * (e @ b)


def _fg_blocked(p, s):
    """The blocked kernel with fresh full-width temporaries and masks per block:
    the in-place kernel must give the same weights, byte for byte."""
    x, br = s.x, s.bracket
    n = x.size
    xm1 = np.concatenate(([0.0], x[:-1]))  # x_{l-1}
    brm1 = np.concatenate(([0.0], br[:-1]))  # [x]_{l-1}
    a, b = bdg._shift_weights(p, s)
    rows = max(1, bdg.CELLS // n)
    f = np.empty(n)
    g = np.empty(n)
    carry = None
    for k0 in range(0, n, rows):
        k1 = min(n, k0 + rows)
        numer = x[k0:k1, None] - xm1[None, :k1]
        mask = np.arange(k0, k1)[:, None] >= np.arange(k1)[None, :]
        sq = np.where(mask, numer**2, -np.inf)
        if carry is not None:
            np.maximum(sq[0, :k0], carry, out=sq[0, :k0])
        wmax = np.maximum.accumulate(sq, axis=0)
        carry = wmax[-1].copy()
        den = np.sqrt(br[k0:k1, None] - brm1[None, :k1] + wmax, where=mask, out=np.zeros_like(sq))
        e = np.divide(numer, den, out=np.zeros_like(sq), where=(den > 0.0) & mask)
        f[k0:k1] = e @ a[:k1]
        g[k0:k1] = e @ b[:k1]
    f *= p * p
    g *= p * p
    return f, g


def _assert_same_bytes(p, s, weights=None):
    # tobytes, not array_equal: -0.0 and 0.0 are different weights here
    f, g = bdg._fg(p, s) if weights is None else weights
    fr, gr = _fg_blocked(p, s)
    assert f.tobytes() == fr.tobytes() and g.tobytes() == gr.tobytes()


def _level_walk(mesh):
    """Level sequence of one wiener path, shifted to start at 0."""
    x = generate(PathGeneratorConfig("wiener", step=2.0**-14, seed=4))
    seq = lebesgue_sequence(x, GridSpec(mesh, 0.0))
    return DiscreteSequence(seq.values - seq.values[0])


@given(x=_walks, p=st.sampled_from([1.5, 2.0, 3.0]))
@settings(max_examples=30, deadline=None)
def test_dense_and_linear_constructions_agree(x, p):
    # walks this short fit in one block of the kernel, which then does the
    # dense oracle's arithmetic
    s = DiscreteSequence(x)
    fd, gd = _fg_dense(p, s)
    f, g = bdg._fg(p, s)
    assert np.array_equal(f, fd) and np.array_equal(g, gd)


@pytest.mark.parametrize("mesh,seed", [(0.04, 4), (0.022, 4)])  # K = 505, 1488
def test_blocked_weights_match_the_dense_oracle(mesh, seed, monkeypatch):
    x = generate(PathGeneratorConfig("wiener", step=2.0**-14, seed=seed))
    seq = lebesgue_sequence(x, GridSpec(mesh, 0.0))
    w = seq.values - seq.values[0]
    assert w.size > bdg.CELLS // w.size  # more than one block
    for p in (1.5, 2.0, 3.0):
        cert = certificate_p(w, p)
        with monkeypatch.context() as m:
            m.setattr(bdg, "_fg", _fg_dense)
            dense = certificate_p(w, p)
        assert np.max(np.abs(cert.f - dense.f)) <= 1e-12 * np.max(np.abs(dense.f))
        assert np.max(np.abs(cert.g - dense.g)) <= 1e-12 * np.max(np.abs(dense.g))
        assert (cert.holds1, cert.holds2) == (dense.holds1, dense.holds2)


@given(x=_walks, p=st.sampled_from([1.5, 2.0, 3.0]), cells=st.sampled_from([bdg.CELLS, 7, 64]))
@example(x=np.asarray([6.42030527e-210]), p=1.5, cells=bdg.CELLS)  # den underflows, numer not
@example(x=np.asarray([-0.0, 0.0, -0.0]), p=2.0, cells=bdg.CELLS)
@example(x=np.asarray([0.0, 1.0, 1.0, 1.0, -2.0, -2.0, -2.0, 0.5, 0.5]), p=3.0, cells=7)
@settings(max_examples=60, deadline=None)
def test_weights_are_bitwise_the_blocked_kernels(x, p, cells):
    # a small CELLS puts a short walk in many blocks, with a partial last one
    with pytest.MonkeyPatch.context() as m:
        m.setattr(bdg, "CELLS", cells)
        _assert_same_bytes(p, DiscreteSequence(x))


@pytest.mark.parametrize("mesh", [0.04, 0.022, 0.016])  # K = 505, 1488, 2463
def test_level_sequence_weights_are_bitwise_the_blocked_kernels(mesh):
    s = _level_walk(mesh)
    rows = bdg.CELLS // len(s)
    assert len(s) > rows and len(s) % rows  # several blocks, the last partial
    for p in (1.5, 2.0, 3.0):
        _assert_same_bytes(p, s)


def test_leftover_scratch_never_reaches_a_result():
    # K = 2463, 708, 2463: the short call runs on rows the long one filled
    calls = [(_level_walk(0.016), 2.0), (_level_walk(0.033), 3.0), (_level_walk(0.016), 2.0)]
    results = [bdg._fg(p, s) for s, p in calls]
    for (s, p), weights in zip(calls, results):
        _assert_same_bytes(p, s, weights)
    assert results[0][0].tobytes() == results[2][0].tobytes()


def test_weights_do_not_depend_on_the_thread(monkeypatch):
    # each worker thread has its own scratch rows
    items = [(p, _level_walk(mesh)) for mesh in (0.016, 0.033, 0.04) for p in (1.5, 3.0)]
    serial = [bdg._fg(p, s) for p, s in items]
    monkeypatch.setenv("PWCALC_THREADS", "2")
    long = harness.default_config("qv-converge")  # members of 2^16 steps: a pool
    workers = harness._ensemble_workers(dataclasses.replace(long, ensemble_size=len(items)))
    threaded = harness.parallel_map(lambda item: bdg._fg(*item), items, workers)
    for (f, g), (ft, gt) in zip(serial, threaded):
        assert f.tobytes() == ft.tobytes() and g.tobytes() == gt.tobytes()


def test_certificate_p_memory_stays_bounded():
    # blocks work in per-thread scratch rows: once those exist, a call at
    # K ~ 2400 allocates its O(K) outputs and no per-block temporaries
    w = _level_walk(0.0165).x  # K = 2386
    certificate_p(w, 2.0)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        certificate_p(w, 2.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 2**20


@given(seed=st.integers(0, 30))
@settings(max_examples=15, deadline=None)
def test_certify_path_uses_shifted_stop_values(seed):
    x = generate(PathGeneratorConfig("wiener", step=2.0**-8, seed=seed))
    seq = lebesgue_sequence(x, GridSpec(0.1, 0.0))
    cert = certify_path(x, seq, 1.0)
    assert cert.holds
    s = DiscreteSequence(seq.values - seq.values[0])
    assert np.allclose(s.bracket, qv_at(x, seq, seq.times), atol=1e-12)
    direct = certificate_p1(seq.values - seq.values[0])
    assert np.array_equal(cert.h, direct.h)
