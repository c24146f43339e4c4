"""Pathwise maximal-inequality certificates for discrete sequences.

For a finite real sequence x_0, ..., x_K write x*_k = max_{l<=k} |x_l| and
[x]_k = x_0^2 + sum_{l<=k} (x_l - x_{l-1})^2. The certificates produce
explicit integrand weights, bounded by 1 in absolute value, whose discrete
integrals against x enforce both maximal inequalities at every index k:

  p = 1:    x*_k <= 6 [x]_k^(1/2) + 2 (h.x)_k,   [x]_k^(1/2) <= 3 x*_k - (h.x)_k
  p > 1:    (x*_k)^p <= C_p [x]_k^(p/2) + 2 (g.x)_k,
            [x]_k^(p/2) <= C_p (x*_k)^p - (f.x)_k,     C_p = 6^p (p-1)^(p-1)

with (w.x)_k = sum_{l=1}^{k} w_{l-1} (x_l - x_{l-1}). Ratios 0/0 are 0 by
convention; x_{-1}, x*_{-1}, [x]_{-1} are all 0. No randomness, no slack:
every inequality is checked exactly (up to float tolerance) at every index.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .partitions import GridSpec, StoppingSequence, _stop_values
from .paths import REL_TOL, SampledPath, _frozen

# cells per block of the p > 1 weight kernel: its three scratch rows stay
# near 1 MB each whatever the sequence length
CELLS = 2**17
# ufunc buffer size, in elements, while the p > 1 weight kernel runs
_BUFSIZE = 16

# running maxima below _TINY are rescaled by _TINY_SCALE for the p = 1 weights:
# every scaled square is then a normal float
_TINY = 2.0**-400
_TINY_SCALE = 2.0**600


@dataclass(frozen=True)
class DiscreteSequence:
    """Finite real sequence with cached running |max| and squared bracket."""

    x: np.ndarray
    abs_max: np.ndarray = field(init=False)
    bracket: np.ndarray = field(init=False)

    def __post_init__(self):
        x, _ = _frozen(self.x, "sequence")
        if x.size < 1:
            raise ValueError("need a nonempty sequence")
        # derived, so not checked finite: the bracket of huge floats may overflow
        abs_max = np.maximum.accumulate(np.abs(x))
        br = np.concatenate(([x[0] ** 2], x[0] ** 2 + np.cumsum(np.diff(x) ** 2)))
        abs_max.setflags(write=False)
        br.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "abs_max", abs_max)
        object.__setattr__(self, "bracket", br)

    def __len__(self) -> int:
        return int(self.x.size)


@dataclass(frozen=True)
class BdgCertificate:
    """Weights and per-index sides of both inequalities for one sequence.

    For p = 1 the single weight sequence is h; for p > 1 the pair (f, g)
    plays the analogous role (g drives the maximal bound, f the bracket
    bound). Discrete integrals use the lagged weight, so entry k of hx/fx/gx
    is sum_{l<=k} w_{l-1} dx_l.
    """

    p: float
    cp: float
    h: np.ndarray | None
    f: np.ndarray | None
    g: np.ndarray | None
    hx: np.ndarray | None
    fx: np.ndarray | None
    gx: np.ndarray | None
    lhs1: np.ndarray
    rhs1: np.ndarray
    lhs2: np.ndarray
    rhs2: np.ndarray

    @property
    def holds1(self) -> bool:
        return bool(np.all(self.lhs1 <= self.rhs1 + REL_TOL * (1.0 + np.abs(self.rhs1))))

    @property
    def holds2(self) -> bool:
        return bool(np.all(self.lhs2 <= self.rhs2 + REL_TOL * (1.0 + np.abs(self.rhs2))))

    @property
    def holds(self) -> bool:
        return self.holds1 and self.holds2


def bdg_constant(p: float) -> float:
    """C_p = 6^p (p-1)^(p-1), for p >= 1; it is 6 at p = 1. ValueError naming
    p where C_p is no finite float: below 1, and above p ~ 110.18, where it
    overflows."""
    p = float(p)  # a numpy float would overflow with a warning, not raise
    if not p >= 1.0:
        raise ValueError(f"C_p needs p >= 1, not p = {p!r}")
    try:
        cp = 6.0**p * (p - 1.0) ** (p - 1.0)
    except OverflowError:  # a power past the float range raises; a product is inf
        cp = math.inf
    if not math.isfinite(cp):
        raise ValueError(f"C_p overflows a float at p = {p!r}")
    return cp


def _as_seq(x) -> DiscreteSequence:
    return x if isinstance(x, DiscreteSequence) else DiscreteSequence(np.asarray(x))


def _lagged_integral(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    if x.size > 1:
        out[1:] = np.cumsum(w[:-1] * np.diff(x))
    return out


def certificate_p1(x) -> BdgCertificate:
    """Weights h_l = x_l / sqrt([x]_l + (x*_l)^2) and both p = 1 inequalities."""
    s = _as_seq(x)
    h = _p1_weights(s)
    # the weights do not depend on the scale of x, but while |x| stays below
    # _TINY their squares are subnormal and lose digits: recompute that prefix
    # on a copy scaled by a power of two, which is exact
    k = int(np.searchsorted(s.abs_max, _TINY))
    if k:
        h[:k] = _p1_weights(DiscreteSequence(s.x[:k] * _TINY_SCALE))
    hx = _lagged_integral(h, s.x)
    root = np.sqrt(s.bracket)
    return BdgCertificate(
        p=1.0,
        cp=6.0,
        h=h,
        f=None,
        g=None,
        hx=hx,
        fx=None,
        gx=None,
        lhs1=s.abs_max,
        rhs1=6.0 * root + 2.0 * hx,
        lhs2=root,
        rhs2=3.0 * s.abs_max - hx,
    )


def _p1_weights(s: DiscreteSequence) -> np.ndarray:
    denom = np.sqrt(s.bracket + s.abs_max**2)
    return np.divide(s.x, denom, out=np.zeros_like(s.x), where=denom > 0.0)


def _shift_weights(p: float, s: DiscreteSequence) -> tuple[np.ndarray, np.ndarray]:
    """Per-shift increments a_l, b_l of [x]^((p-1)/2) and (x*)^(p-1)."""
    q = 0.5 * (p - 1.0)
    br_pow = s.bracket**q
    xs_pow = s.abs_max ** (p - 1.0)
    a = np.diff(br_pow, prepend=0.0)
    b = np.diff(xs_pow, prepend=0.0)
    return a, b


def _fg(p: float, s: DiscreteSequence) -> tuple[np.ndarray, np.ndarray]:
    """f, g = p^2 e @ (a, b), e[k, l] = (x_k - x_{l-1}) / sqrt([x]_k - [x]_{l-1} + w[k, l]).

    w[k, l] = max_{l<=m<=k} (x_m - x_{l-1})^2 is a running max down column l:
    rows go in blocks of CELLS // K, each carrying the column maxima on, and
    a block touches only the columns l <= k of its rows. A block's numerator,
    squares and denominator are written in place into three per-thread
    scratch rows of max(CELLS, K) floats, and only the rows x rows triangle
    l > k inside the block is masked. Each cell holds the same float as in
    the masked form e = where(l <= k and den > 0, numer / den, 0), and each
    block is one (rows, k1) matrix for the two products.
    """
    x, br = s.x, s.bracket
    n = x.size
    xm1 = np.concatenate(([0.0], x[:-1]))  # x_{l-1}
    brm1 = np.concatenate(([0.0], br[:-1]))  # [x]_{l-1}
    a, b = _shift_weights(p, s)
    rows = max(1, CELLS // n)
    f = np.empty(n)
    g = np.empty(n)
    carry = np.empty(n)
    numer_rows, sq_rows, den_rows = _weight_rows(max(CELLS, n))
    upper = np.triu(np.ones((min(rows, n),) * 2, dtype=bool), 1)  # l > k
    # a ufunc copies both broadcast operands of an outer difference through
    # its buffer when a row is shorter than the buffer; a buffer shorter
    # than a row lets it run on the rows in place, several times faster
    bufsize = np.setbufsize(_BUFSIZE)
    try:
        for k0 in range(0, n, rows):
            k1 = min(n, k0 + rows)
            r = k1 - k0
            numer = numer_rows[: r * k1].reshape(r, k1)
            sq = sq_rows[: r * k1].reshape(r, k1)
            den = den_rows[: r * k1].reshape(r, k1)
            tri = upper[:r, :r]
            np.subtract(x[k0:k1, None], xm1[None, :k1], out=numer)
            np.square(numer, out=sq)
            # squares are >= +0.0, so a zero above the diagonal leaves every
            # column max below it unchanged
            np.copyto(sq[:, k0:k1], 0.0, where=tri)
            if k0:
                np.maximum(sq[0, :k0], carry[:k0], out=sq[0, :k0])
            for above, row in zip(sq[:-1], sq[1:]):
                np.maximum(row, above, out=row)
            carry[:k1] = sq[-1]
            np.subtract(br[k0:k1, None], brm1[None, :k1], out=den)
            den += sq
            np.copyto(den[:, k0:k1], 1.0, where=tri)
            np.copyto(numer[:, k0:k1], 0.0, where=tri)
            np.sqrt(den, out=den)
            # den can underflow to 0 while numer does not: those weights are 0
            if not den.min() > 0.0:
                flat = ~(den > 0.0)
                numer[flat] = 0.0
                den[flat] = 1.0
            np.divide(numer, den, out=numer)
            f[k0:k1] = numer @ a[:k1]
            g[k0:k1] = numer @ b[:k1]
    finally:
        np.setbufsize(bufsize)
    f *= p * p
    g *= p * p
    return f, g


_rows = threading.local()


def _weight_rows(n: int) -> np.ndarray:
    """_fg's three scratch rows of at least n floats, kept per thread between
    calls: a call then holds only its O(K) outputs beyond them (the peak
    test_certificate_p_memory_stays_bounded pins). _fg overwrites what it
    reads, so no result depends on what an earlier call left behind."""
    rows = getattr(_rows, "fg", None)
    if rows is None or rows.shape[1] < n:
        rows = np.empty((3, n))
        _rows.fg = rows
    return rows


def certificate_p(x, p: float) -> BdgCertificate:
    """Shifted-window weights f, g and both inequalities for p > 1."""
    if not p > 1.0:
        raise ValueError("certificate_p needs p > 1; use certificate_p1 for p = 1")
    cp = bdg_constant(p)
    s = _as_seq(x)
    f, g = _fg(p, s)
    fx = _lagged_integral(f, s.x)
    gx = _lagged_integral(g, s.x)
    return BdgCertificate(
        p=p,
        cp=cp,
        h=None,
        f=f,
        g=g,
        hx=None,
        fx=fx,
        gx=gx,
        lhs1=s.abs_max**p,
        rhs1=cp * s.bracket ** (0.5 * p) + 2.0 * gx,
        lhs2=s.bracket ** (0.5 * p),
        rhs2=cp * s.abs_max**p - fx,
    )


def certify_path(path: SampledPath, seq: StoppingSequence, p: float = 1.0) -> BdgCertificate:
    """Certificate for the path sampled at its stop times.

    The sampled sequence is X(tau_n) - X_0, which makes the bracket the
    simple quadratic variation along the sequence.
    """
    s = DiscreteSequence(seq.values - seq.values[0])
    return certificate_p1(s) if p == 1.0 else certificate_p(s, p)


def _terminal_sequence(path: SampledPath, grid: GridSpec) -> DiscreteSequence:
    """X(tau_n) - X_0 at the stops of the path's level sequence on grid,
    closed by X_T - X_0."""
    w = _stop_values(path, grid.mesh, grid.offset)
    w -= w[0]
    return DiscreteSequence(np.append(w, path.values[-1] - path.values[0]))
