"""Finite sampled paths with linear interpolation and exact first-hit solvers.

A path is a finite sequence of samples (t_i, x_i), t_0 = 0 < t_1 < ... < t_n,
interpreted as the continuous piecewise-linear trajectory through them. The
horizon is t_n; the path is undefined beyond it. First hitting times are
solved exactly on each linear segment, never by bisection, so downstream
stopping-time constructions are reproducible to the last float.

Stopping times that never occur are reported as INFINITE_TIME (IEEE +inf),
which compares above every finite time.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from dataclasses import dataclass

import numpy as np

INFINITE_TIME = math.inf

# relative tolerance of the exact pathwise checks in every module
REL_TOL = 1e-9

GENERATOR_KINDS = ("wiener", "geometric", "zigzag", "constant", "sine", "custom-seeded")

# Brownian-bridge resolution of wiener members (see _resolve_bridge)
MAX_BRIDGE_SAMPLES = 2**24
_BRIDGE_LEAF = 0.5  # leaf variance bound, in mesh^2 units
_BRIDGE_BLOCK = 32768  # leaves per block: bounds the temporaries, keeps each numpy call long


class ResourceLimitError(RuntimeError):
    """Raised when a construction would materialize too many stops or samples."""


@dataclass(frozen=True)
class SampledPath:
    """Piecewise-linear trajectory through strictly time-increasing samples."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if t.ndim != 1 or v.ndim != 1 or t.shape != v.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if t.size < 1:
            raise ValueError("path needs at least one sample")
        if t[0] != 0.0:
            raise ValueError("path must start at time 0")
        if t.size > 1 and not np.all(t[1:] > t[:-1]):
            raise ValueError("sample times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("samples must be finite")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return int(self.times.size)


def _check_domain(path: SampledPath, t) -> None:
    t = np.asarray(t)
    if t.size and (t.min() < 0.0 or t.max() > path.horizon):
        raise ValueError(f"time out of path domain [0, {path.horizon}]")


def evaluate(path: SampledPath, t: float) -> float:
    """Value of the path at time t, exact at sample times."""
    _check_domain(path, t)
    return float(_interp(t, path))


def evaluate_many(path: SampledPath, ts: np.ndarray) -> np.ndarray:
    """Vectorized evaluate; ts need not be sorted."""
    _check_domain(path, ts)
    return _interp(ts, path)


def _interp(ts, path: SampledPath):
    """np.interp on the path's samples without copying them.

    np.interp copies read-only inputs, and a path's arrays are read-only, so
    each call would copy the whole path; it reads through writeable views
    of the same memory instead. Samples held in memory numpy cannot make
    writeable are passed as they are.
    """
    return np.interp(ts, _readable(path.times), _readable(path.values))


def _readable(a: np.ndarray) -> np.ndarray:
    v = a.view()
    try:
        v.setflags(write=True)
    except ValueError:
        return a
    return v


def hitting_time_abs(path: SampledPath, threshold: float, start: float = 0.0) -> float:
    """First time t >= start with |X_t| >= threshold, or INFINITE_TIME.

    The crossing instant is solved exactly on the segment where the level
    threshold (or -threshold) is first reached.
    """
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    _check_domain(path, start)
    v0 = evaluate(path, start)
    if abs(v0) >= threshold:
        return float(start)
    t, v = path.times, path.values
    i0 = int(np.searchsorted(t, start, side="right"))  # first sample strictly after start
    # segment endpoints after the (possibly partial) start segment
    a = np.concatenate(([v0], v[i0:-1])) if i0 < t.size else np.asarray([v0])
    b = v[i0:] if i0 < t.size else np.asarray([], dtype=np.float64)
    if b.size == 0:
        return INFINITE_TIME
    ta = np.concatenate(([start], t[i0:-1]))
    tb = t[i0:]
    hit = np.maximum(np.abs(a), np.abs(b)) >= threshold
    if not np.any(hit):
        return INFINITE_TIME
    i = int(np.argmax(hit))
    aa, bb, t0, t1 = a[i], b[i], ta[i], tb[i]
    cands = []
    for lvl in (threshold, -threshold):
        if (bb - aa) != 0.0:
            th = (lvl - aa) / (bb - aa)
            if 0.0 <= th <= 1.0:
                cands.append(t0 + (t1 - t0) * th)
    if not cands:  # flat segment sitting exactly at the level
        return float(t0)
    return float(min(cands))


@dataclass(frozen=True)
class PathGeneratorConfig:
    """Config for the built-in path generators.

    kind: one of GENERATOR_KINDS. Interpretation of volatility/drift by kind:
      wiener        increments N(drift*dt, volatility^2*dt), start 0
      geometric     exp((drift - volatility^2/2)t + volatility*W_t), start 1
      zigzag        alternates 0, volatility, 0, ... one move per step
      constant      constant at drift
      sine          volatility * sin(2*pi*f*t), f = drift (or 1 when drift is 0)
      custom-seeded seeded mixture of increment laws (heavy and light tails,
                    flat stretches), variance volatility^2*dt per step

    bridge_grid: optional (mesh, offset) of a grid d*Z + r, wiener only. The
      samples are then joined by Brownian bridges instead of chords, resolved
      finely enough that the member's level sequence on that grid, and on
      every coarser grid whose levels lie on it, is that of a Brownian path
      through the same samples (see _resolve_bridge). Unset, the member is
      the chord path through its samples.
    """

    kind: str
    horizon: float = 1.0
    step: float = 2.0**-8
    seed: int = 0
    volatility: float = 1.0
    drift: float = 0.0
    bridge_grid: tuple | None = None

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if not (self.horizon > 0.0 and self.step > 0.0):
            raise ValueError("horizon and step must be positive")
        if self.step > self.horizon:
            raise ValueError("step must not exceed horizon")
        if self.bridge_grid is not None:
            if self.kind != "wiener":
                raise ValueError("bridge_grid applies to wiener paths only")
            mesh, offset = (float(g) for g in self.bridge_grid)
            if not (mesh > 0.0 and 0.0 <= offset < mesh):
                raise ValueError("bridge_grid needs mesh > 0 and 0 <= offset < mesh")
            object.__setattr__(self, "bridge_grid", (mesh, offset))

    def to_json_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "horizon": self.horizon,
            "step": self.step,
            "seed": self.seed,
            "volatility": self.volatility,
            "drift": self.drift,
        }
        if self.bridge_grid is not None:
            d["bridge_grid"] = list(self.bridge_grid)
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "PathGeneratorConfig":
        _check_json_fields(PathGeneratorConfig, d, "generator")
        return PathGeneratorConfig(**d)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# JSON name and value test by field annotation; the tuple fields of the
# configs hold numbers, and an int is a float, but a bool is no number
_JSON_TYPES = {
    "int": ("integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("number", _is_number),
    "bool": ("boolean", lambda v: isinstance(v, bool)),
    "str": ("string", lambda v: isinstance(v, str)),
    "tuple": (
        "list of numbers", lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v))
    ),
    "None": ("null", lambda v: v is None),
}


def _check_json_fields(cls, d, what: str) -> None:
    """ValueError naming the keys a JSON object lacks or has beyond the
    fields of the dataclass cls, and the keys whose values are not of their
    field's type. A field of another type (a nested config) is left to its
    own from_json_dict."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object")
    fields = dataclasses.fields(cls)
    missing = sorted(
        f.name for f in fields
        if f.name not in d
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    )
    unknown = sorted(d.keys() - {f.name for f in fields})
    problems = [
        f"{kind} keys {keys}" for kind, keys in (("missing", missing), ("unknown", unknown)) if keys
    ]
    for f in fields:
        types = [_JSON_TYPES.get(t) for t in f.type.split(" | ")]
        if f.name in d and None not in types and not any(ok(d[f.name]) for _, ok in types):
            expected = " or ".join(name for name, _ in types)
            problems.append(f"{f.name} is {d[f.name]!r}, {expected} expected")
    if problems:
        raise ValueError(f"{what}: {'; '.join(problems)}")


def generate(config: PathGeneratorConfig) -> SampledPath:
    """Deterministic path from config; same config and seed, same floats."""
    n = max(1, int(round(config.horizon / config.step)))
    times = np.linspace(0.0, config.horizon, n + 1)
    dt = config.horizon / n
    kind = config.kind
    if kind == "constant":
        return SampledPath(times, np.full(n + 1, config.drift))
    if kind == "zigzag":
        vals = np.zeros(n + 1)
        vals[1::2] = config.volatility
        return SampledPath(times, vals)
    if kind == "sine":
        freq = config.drift if config.drift != 0.0 else 1.0
        return SampledPath(times, config.volatility * np.sin(2.0 * np.pi * freq * times))
    rng = np.random.default_rng(config.seed)
    if kind == "wiener":
        inc = rng.standard_normal(n)
        inc *= config.volatility * math.sqrt(dt)
        inc += config.drift * dt
        vals = np.empty(n + 1)
        vals[0] = 0.0
        np.cumsum(inc, out=vals[1:])
        if config.bridge_grid is not None and config.volatility != 0.0:
            times, vals = _resolve_bridge(times, vals, config, dt)
        return SampledPath(times, vals)
    if kind == "geometric":
        w = np.concatenate(([0.0], np.cumsum(rng.standard_normal(n) * math.sqrt(dt))))
        vals = np.exp(
            (config.drift - 0.5 * config.volatility**2) * times + config.volatility * w
        )
        return SampledPath(times, vals)
    # custom-seeded: per-step law chosen among unit-variance shapes, plus flat runs
    law = rng.integers(0, 3, size=n)
    z = rng.standard_normal(n)
    lap = rng.laplace(0.0, 1.0 / math.sqrt(2.0), size=n)
    uni = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=n)
    inc = np.where(law == 0, z, np.where(law == 1, lap, uni))
    inc[rng.random(n) < 0.05] = 0.0
    vals = np.concatenate(([0.0], np.cumsum(inc * config.volatility * math.sqrt(dt))))
    return SampledPath(times, vals)


def _resolve_bridge(times, vals, config: PathGeneratorConfig, dt: float):
    """Samples of a Brownian path through (times, vals), resolved on a grid.

    Between two samples Brownian motion is a Brownian bridge. Each segment
    is cut by Levy midpoints, (a+b)/2 + vol*sqrt(h)/2 * Z, into 2^D leaves of
    variance w at most mesh^2/2, D the least depth that reaches this. That
    is the adaptive rule "split while the segment is longer than mesh^2/2
    and its bridge reaches a level off the chord with probability above
    eps" for every eps <= e^-4: a segment longer than that whose chord
    touches at most one level reaches the nearest level above or below it
    with probability above e^-4, and one whose chord touches two levels may
    reverse between them.

    At a leaf with chord a -> b, nearest levels A above and B below it and
    s = A - B (all in grid units), the reflection principle gives
    P(touch A) = exp(-2(A-a)(A-b)/w), P(touch B) = exp(-2(a-B)(b-B)/w),
    and, from the first images, P(A then B) = exp(-2s(s + b - a)/w) and
    P(B then A) = exp(-2s(s - (b - a))/w). One uniform picks A then B,
    B then A, A only, B only or neither, "only" taking the rest of each
    touch probability. Touches are new samples exactly on their levels, one
    at the leaf's midpoint time or two at its thirds, so the grid sweep
    counts them; a re-touch of the current level needs no care, level
    sequences drop it. At step 2^-16 and mesh 2^-8 this gives a mean QV of
    0.994 of the horizon with 3.1 times the samples. One touch at most per
    leaf gives 0.967 at these leaves and needs leaves of mesh^2/4, and 5.6
    times the samples, for 0.996.

    Each normal and uniform is a counter-based hash of (member key, segment,
    heap index of the tree node), so the resolved member does not depend on
    the thread count, and on a finer grid the same midpoints reappear. The
    original samples are kept exactly. Touches land exactly on the grid
    levels when the mesh is a power of two and the offset 0; otherwise each
    sits on the far side of its level by at most a few ulps.
    """
    mesh, offset = config.bridge_grid
    n = times.size - 1
    w0 = (config.volatility / mesh) ** 2 * dt
    depth = max(0, math.ceil(math.log2(w0 / _BRIDGE_LEAF)))
    leaves = 1 << depth
    bound = 3 * n * leaves + 1
    if bound > MAX_BRIDGE_SAMPLES:
        raise ResourceLimitError(
            f"bridge resolution could produce {bound:.3g} samples (limit {MAX_BRIDGE_SAMPLES:g})"
        )
    scale = -2.0 * leaves / w0  # touch probability exponent per (L-a)(L-b) at a leaf
    sd = [0.5 * abs(config.volatility) * math.sqrt(dt / (1 << lv)) for lv in range(depth)]
    key = np.random.SeedSequence(config.seed, spawn_key=(1,)).generate_state(1)[0]
    out_t, out_x = np.empty(bound), np.empty(bound)
    k = 0
    per_block = max(1, _BRIDGE_BLOCK // leaves)
    size = per_block * leaves
    ws = _scratch("bridge", size + 1, 13)
    p, q, u, above, below, p_up, p_dn, span, p_ud, p_du, draw, tmp, h = ws
    flags = _scratch("bridge-flags", size, 5, bool)
    ints = _scratch("bridge-ints", size, 2, np.int64)
    bits = _scratch("bridge-bits", size, 2, np.uint32)
    offsets = np.arange(size + 1)
    for s0 in range(0, n, per_block):
        s1 = min(n, s0 + per_block)
        m = s1 - s0
        nl = m * leaves
        seg_hash = np.arange(s0, s1, dtype=np.uint32)
        seg_hash *= _H0
        seg_hash += key
        _mix32(seg_hash, bits[1][:m])
        # p[i*leaves + j], q[i*leaves + j]: value and time at fraction
        # j/leaves of segment s0 + i
        P, Q = p[: nl + 1], q[: nl + 1]
        P[::leaves] = vals[s0 : s1 + 1]
        Q[::leaves] = times[s0 : s1 + 1]
        for lv in range(depth):
            gap = leaves >> lv
            z = _bridge_normals(seg_hash, lv, bits, above, below)
            z *= sd[lv]
            mid = p_up[: z.size]
            np.add(P[0:-1:gap], P[gap::gap], out=mid)
            mid *= 0.5
            z += mid
            P[gap // 2 :: gap] = z
            np.add(Q[0:-1:gap], Q[gap::gap], out=mid)
            mid *= 0.5
            Q[gap // 2 :: gap] = mid
        # nearest levels above and below each leaf's chord, in grid units
        U = u[: nl + 1]
        np.subtract(P, offset, out=U)
        U /= mesh
        a, b = U[:-1], U[1:]
        A, B, PU, PD, S, PUD, PDU, D, T = (
            x[:nl] for x in (above, below, p_up, p_dn, span, p_ud, p_du, draw, tmp)
        )
        np.maximum(a, b, out=A)
        np.floor(A, out=A)
        A += 1.0
        np.minimum(a, b, out=B)
        np.ceil(B, out=B)
        B -= 1.0
        # touch probabilities: above, below, above then below, below then above
        np.subtract(A, a, out=PU)
        np.subtract(A, b, out=T)
        PU *= T
        PU *= scale
        np.exp(PU, out=PU)
        np.subtract(a, B, out=PD)
        np.subtract(b, B, out=T)
        PD *= T
        PD *= scale
        np.exp(PD, out=PD)
        np.subtract(A, B, out=S)
        np.subtract(b, a, out=T)
        np.add(S, T, out=PUD)
        PUD *= S
        PUD *= scale
        np.exp(PUD, out=PUD)
        np.subtract(S, T, out=PDU)
        PDU *= S
        PDU *= scale
        np.exp(PDU, out=PDU)
        # one uniform per leaf picks a case from consecutive intervals of
        # [0, 1): above then below, below then above, above only, below only
        np.multiply(_node_hash(seg_hash, leaves, leaves, bits), 2.0**-32, out=D)
        two, first_up, one, ge, lt = (x[:nl] for x in flags)
        PDU += PUD
        np.less(D, PDU, out=two)
        np.less(D, PUD, out=first_up)
        PU -= PDU
        np.maximum(PU, 0.0, out=PU)
        PU += PDU
        np.greater_equal(D, PDU, out=ge)
        np.less(D, PU, out=lt)
        ge &= lt
        first_up |= ge
        PD -= PDU
        np.maximum(PD, 0.0, out=PD)
        PD += PU
        np.less(D, PD, out=one)
        # each leaf start is followed by its touches: one at the leaf's
        # midpoint time, two at its thirds
        count, at = (x[:nl] for x in ints)
        np.add(one, two, out=count, dtype=np.int64)
        np.cumsum(count, out=at)
        at -= count
        at += offsets[:nl]
        at += k
        out_x[at] = P[:-1]
        out_t[at] = Q[:-1]
        H = h[:nl]
        np.subtract(Q[1:], Q[:-1], out=H)
        hit = np.flatnonzero(one)
        at = at[hit]
        at += 1
        up = first_up[hit]
        lev = B[hit]
        lev += up * S[hit]
        out_x[at] = _level_values(lev, up, mesh, offset)
        pair = two[hit]
        frac = pair * (1.0 / 3.0 - 0.5)
        frac += 0.5
        frac *= H[hit]
        frac += Q[hit]
        out_t[at] = frac
        sub = np.flatnonzero(pair)
        hit = hit[sub]
        at = at[sub]
        at += 1
        up = ~up[sub]
        lev = B[hit]
        lev += up * S[hit]
        out_x[at] = _level_values(lev, up, mesh, offset)
        frac = H[hit]
        frac *= 2.0 / 3.0
        frac += Q[hit]
        out_t[at] = frac
        k += nl + int(count.sum())
    out_t[k], out_x[k] = times[-1], vals[-1]
    return out_t[: k + 1], out_x[: k + 1]


_scratch_arrays = threading.local()


def _scratch(name: str, n: int, count: int, dtype=np.float64) -> np.ndarray:
    """count rows of n scratch elements, kept per thread between calls.

    A long temporary is mapped in anew each time it is allocated, and every
    page of it faulted in again; at these sizes that costs more than the
    arithmetic. Callers overwrite what they read, so no result depends on
    what an earlier call left behind.
    """
    rows = getattr(_scratch_arrays, name, None)
    if rows is None or rows.shape[1] < n:
        rows = np.empty((count, n), dtype=dtype)
        setattr(_scratch_arrays, name, rows)
    return rows


_H0 = np.uint32(0x85EBCA6B)
_H1 = np.uint32(0x9E3779B9)
_H2 = np.uint32(0x68E31DA4)
_TWO_PI_32 = np.float32(2.0 * math.pi * 2.0**-32)


def _mix32(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """In-place 32-bit integer hash (lowbias32 finalizer) of a uint32 array;
    y is scratch of the same length."""
    np.right_shift(x, np.uint32(16), out=y)
    x ^= y
    x *= np.uint32(0x7FEB352D)
    np.right_shift(x, np.uint32(15), out=y)
    x ^= y
    x *= np.uint32(0x846CA68B)
    np.right_shift(x, np.uint32(16), out=y)
    x ^= y
    return x


def _node_hash(seg_hash: np.ndarray, first: int, count: int, bits: np.ndarray) -> np.ndarray:
    """Hash of (segment, heap node first + q) for q < count, segment-major,
    in bits[0]; bits[1] is scratch."""
    x = bits[0][: seg_hash.size * count]
    nodes = np.arange(first, first + count, dtype=np.uint32)
    nodes *= _H1
    for q in range(count):
        np.add(seg_hash, nodes[q], out=x[q::count])
    return _mix32(x, bits[1][: x.size])


def _bridge_normals(seg_hash, lv, bits, radius, out) -> np.ndarray:
    """Standard normals of the midpoints at tree level lv, segment-major.

    One Box-Muller pair per parent node (node 0 for the roots) gives the
    cosine normal to its left child and the sine normal to its right child.
    radius and out are float scratch, out of at least twice the pair count.
    """
    half = 1 << lv >> 1
    x = _node_hash(seg_hash, half, max(half, 1), bits)
    r = radius[: x.size]
    np.add(x, 0.5, out=r)
    r *= 2.0**-32
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    x ^= _H2
    angle = _mix32(x, bits[1][: x.size]).astype(np.float32)
    angle *= _TWO_PI_32
    if lv == 0:
        z = out[: x.size]
        np.multiply(r, np.cos(angle), out=z)
        return z
    z = out[: 2 * x.size]
    np.multiply(r, np.cos(angle), out=z[0::2])
    np.multiply(r, np.sin(angle), out=z[1::2])
    return z


def _level_values(lev: np.ndarray, up: np.ndarray, mesh: float, offset: float) -> np.ndarray:
    """lev * mesh + offset, moved by ulps until (x - offset) / mesh, the grid
    sweep's own arithmetic, is at or beyond lev: above it for up touches,
    below it for down touches."""
    x = lev * mesh
    x += offset
    if offset == 0.0 and math.frexp(mesh)[0] == 0.5:
        return x  # a power-of-two mesh scales levels exactly
    side = up * 2.0
    side -= 1.0
    while True:
        short = x - offset
        short /= mesh
        short -= lev
        short *= side
        short = np.flatnonzero(short < 0.0)
        if short.size == 0:
            return x
        x[short] = np.nextafter(x[short], side[short] * np.inf)
