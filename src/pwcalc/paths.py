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

import ctypes
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

INFINITE_TIME = math.inf

# relative tolerance of the exact pathwise checks in every module
REL_TOL = 1e-9

GENERATOR_KINDS = ("wiener", "geometric", "zigzag", "constant", "sine", "custom-seeded")

# samples of one generated member, chord or Brownian-bridge resolved
MAX_SAMPLES = 2**24
# Brownian-bridge resolution of wiener members (see _resolve_bridge)
_BRIDGE_LEAF = 0.5  # leaf variance bound, in mesh^2 units
_BRIDGE_BLOCK = 32768  # leaves per block: bounds the temporaries, keeps each numpy call long


class ResourceLimitError(RuntimeError):
    """Raised when a construction would materialize too many stops or samples."""


def _frozen(a, what: str) -> tuple[np.ndarray, np.ndarray]:
    """a as a finite 1-d float64 array that no one can write through, and a
    writeable view of the same memory for readers that copy read-only input.

    The one ownership rule for every array a value holds: SampledPath,
    partitions.StoppingSequence, integration.StepProcess and
    bdg.DiscreteSequence take their arrays through it. An array the caller
    passes is frozen where it lies, so the caller's own handle to it turns
    read-only as well. An input that is already read-only (another value's
    array, or a view whose base someone may still write) is copied first,
    and so is a strided one, which np.interp would copy.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{what} must be a 1-d array")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must be finite")
    if not (a.flags.writeable and a.flags.c_contiguous):
        a = a.copy()
    view = a.view()
    a.setflags(write=False)
    return a, view


@dataclass(frozen=True)
class SampledPath:
    """Piecewise-linear trajectory through strictly time-increasing samples."""

    times: np.ndarray
    values: np.ndarray
    # writeable views of times and values: np.interp copies read-only arrays
    _interp_args: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        (t, rt), (v, rv) = _frozen(self.times, "times"), _frozen(self.values, "values")
        if t.shape != v.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if t.size < 1:
            raise ValueError("path needs at least one sample")
        if t[0] != 0.0:
            raise ValueError("path must start at time 0")
        if t.size > 1 and not np.all(t[1:] > t[:-1]):
            raise ValueError("sample times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_interp_args", (rt, rv))

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
    """np.interp on the path's samples, read in place."""
    return np.interp(ts, *path._interp_args)


def hitting_time_abs(path: SampledPath, threshold: float) -> float:
    """First time t with |X_t| >= threshold, or INFINITE_TIME."""
    return float(_exit_times(path, [threshold])[0])


def _exit_times(path: SampledPath, levels) -> np.ndarray:
    """sigma(X, N) = inf{t : |X_t| >= N} for each level N, or INFINITE_TIME.

    The one exit-time kernel: it solves every level a caller needs in one
    pass, and hitting_time_abs is its one-level case. The first sample k at
    or past a level is found on the running max of |X|; the sample before it
    is below the level, so the crossing is the one solve of X = +-N, the
    sign of X at k, on segment [k-1, k].
    """
    levels = np.asarray(levels, dtype=np.float64)
    if not np.all(levels > 0.0):
        raise ValueError("threshold must be positive")
    t, v = path.times, path.values
    k = np.searchsorted(np.maximum.accumulate(np.abs(v)), levels)
    out = np.full(levels.shape, INFINITE_TIME)
    out[k == 0] = 0.0
    at = (k > 0) & (k < v.size)
    k, lvl = k[at], levels[at]
    a, b, t0 = v[k - 1], v[k], t[k - 1]
    lvl = np.where(b > 0.0, lvl, -lvl)
    out[at] = t0 + (t[k] - t0) * ((lvl - a) / (b - a))
    return out


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

    A config is refused when it is built if horizon or step is not positive
    and finite, step passes horizon, horizon / step overflows, volatility or
    drift is not finite, or seed is negative.
    """

    kind: str
    horizon: float = 1.0
    step: float = 2.0**-8
    seed: int = 0
    volatility: float = 1.0
    drift: float = 0.0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if not (0.0 < self.horizon < math.inf and 0.0 < self.step < math.inf):
            raise ValueError("horizon and step must be positive and finite")
        if self.step > self.horizon:
            raise ValueError("step must not exceed horizon")
        if self.horizon / self.step == math.inf:
            raise ValueError("horizon / step overflows a float")
        if not (math.isfinite(self.volatility) and math.isfinite(self.drift)):
            raise ValueError(
                f"volatility ({self.volatility}) and drift ({self.drift}) must be finite"
            )
        if self.seed < 0:
            raise ValueError(f"seed ({self.seed}) must be >= 0")

    @property
    def segments(self) -> int:
        """Segments between the samples of a generated member. Bridge
        resolution only adds samples, so a member has at least this many."""
        return max(1, int(round(self.horizon / self.step)))

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

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


def generate(config: PathGeneratorConfig, bridge_level: int | None = None) -> SampledPath:
    """Deterministic path from config; same config and seed, same floats.

    bridge_level: an int m in [-1023, 1074], wiener only, so that the mesh
      2^-m is a finite nonzero float; no config field sets it. The samples
      are then joined by Brownian bridges instead of chords, resolved on the
      grid 2^-m Z (see _resolve_bridge). The member's level sequences there,
      and on every coarser dyadic grid at offset 0, come close to those of a
      Brownian path through the same samples, but not exactly: over the 10^4
      members of the isometry-mc preset (step 2^-16, m = 8) the mean QV on
      2^-8 is 0.995078 of volatility^2 * horizon, SE 3.2e-5, about 156 SE
      low. ROADMAP.md item 12 plans a check of this gap and item 5 a sampler
      that closes it. At m = -1023 the leaf variance underflows to 0 and the
      chord samples are kept; at m = 1074 it overflows and the member passes
      MAX_SAMPLES. None keeps the chord path through the samples.

      No code in the package passes a bridge level. isometry-mc, the one
      experiment that resolves members, takes each member's QV from
      quadvar._bridge_terminal_qv without building the member; tests use
      this form as that kernel's reference.

    Raises ResourceLimitError, before the member's samples are allocated, for
    a member of more than MAX_SAMPLES samples, chord or resolved.
    """
    if bridge_level is not None:
        if config.kind != "wiener":
            raise ValueError(f"a bridge level applies to wiener paths only, not {config.kind}")
        if isinstance(bridge_level, bool) or not isinstance(bridge_level, (int, np.integer)):
            raise TypeError(f"bridge level {bridge_level!r} must be an int")
        if not -1023 <= bridge_level <= 1074:
            raise ValueError(f"bridge level {bridge_level} must be in [-1023, 1074]")
    n = config.segments
    if n >= MAX_SAMPLES:
        raise ResourceLimitError(f"member would have {n + 1:.3g} samples (limit {MAX_SAMPLES:g})")
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
        if bridge_level is not None and config.volatility != 0.0:
            times, vals = _resolve_bridge(times, vals, config, dt, 2.0 ** -int(bridge_level))
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


def _resolve_bridge(times, vals, config: PathGeneratorConfig, dt: float, mesh: float):
    """Samples of a Brownian path through (times, vals), resolved on the grid
    mesh*Z, mesh a power of two, by the reflection principle (Glasserman
    2004, Monte Carlo Methods in Financial Engineering, section 6.4).

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
    about 0.995 of the horizon (generate gives the measured figure) with 3.1
    times the samples. One touch at most per leaf gives 0.967 at these
    leaves and needs leaves of mesh^2/4, and 5.6 times the samples, for
    0.996.

    Each normal and uniform is a counter-based hash of (member key, segment,
    heap index of the tree node), so the resolved member does not depend on
    the thread count, and on a finer grid the same midpoints reappear. The
    original samples are kept exactly, and each touch is lev * mesh, exactly
    on its level, since a power-of-two mesh scales levels exactly. The
    samples go into two buffers sized to the bound of 3 samples per leaf,
    shrunk to the member's samples before they are returned.
    """
    bridge = _bridge_blocks(vals, config, dt, mesh)
    if bridge is None:
        return times, vals
    leaves, blocks = bridge
    bound = 3 * (times.size - 1) * leaves + 1
    out_t, out_x = np.empty(bound), np.empty(bound)
    k = 0
    for u, s0, s1, P, at, hit, pair in blocks:
        # Q[i*leaves + j]: time at fraction j/leaves of segment s0 + i
        Q = np.empty(P.size)
        Q[::leaves] = times[s0 : s1 + 1]
        gap = leaves
        while gap > 1:
            Q[gap // 2 :: gap] = (Q[0:-1:gap] + Q[gap::gap]) * 0.5
            gap >>= 1
        size = u.size - 1
        x, t = out_x[k : k + size], out_t[k : k + size]
        x[at], t[at] = P[:-1], Q[:-1]
        at = at[hit] + 1
        x[at] = u[at] * mesh
        t[at] = (pair * (1.0 / 3.0 - 0.5) + 0.5) * (Q[hit + 1] - Q[hit]) + Q[hit]
        sub = np.flatnonzero(pair)
        hit, at = hit[sub], at[sub] + 1
        x[at] = u[at] * mesh
        t[at] = (Q[hit + 1] - Q[hit]) * (2.0 / 3.0) + Q[hit]
        k += size
        # the next block is built without this one's arrays
        del u, P, Q, at, hit, pair, sub
    out_t[k], out_x[k] = times[-1], vals[-1]
    # the member keeps only its own samples, not the bound's
    out_t.resize(k + 1, refcheck=False)
    out_x.resize(k + 1, refcheck=False)
    return out_t, out_x


def _bridge_blocks(vals, config: PathGeneratorConfig, dt: float, mesh: float):
    """The Brownian bridges of _resolve_bridge between the samples vals, a
    step dt apart, resolved on the grid mesh*Z: None where a leaf's variance
    is 0, as such a bridge touches no level its chord does not hold, else
    (leaves, blocks), each step cut into leaves leaves and blocks an
    iterator over _bridge_block's blocks in time order.

    Raises ResourceLimitError, before any block is built, where the resolved
    member could pass MAX_SAMPLES samples: up to 3 per leaf.
    """
    n = vals.size - 1
    try:
        w0 = (config.volatility / mesh) ** 2 * dt
    except OverflowError:
        w0 = math.inf
    if w0 == 0.0:
        return None
    # 2^depth leaves of variance at most _BRIDGE_LEAF per step; a depth whose
    # leaves alone pass the limit, an infinite one included, is never shifted
    depth = max(0, math.ceil(math.log2(w0 / _BRIDGE_LEAF))) if w0 < math.inf else math.inf
    if depth >= MAX_SAMPLES.bit_length() or 3 * n << depth >= MAX_SAMPLES:
        raise ResourceLimitError(
            f"bridge resolution needs 2^{depth} leaves on each of {n} steps "
            f"(limit {MAX_SAMPLES:g} samples)"
        )
    leaves = 1 << depth
    scale = -2.0 * leaves / w0  # touch probability exponent per (L-a)(L-b) at a leaf
    sd = [0.5 * abs(config.volatility) * math.sqrt(dt / (1 << lv)) for lv in range(depth)]
    key = np.random.SeedSequence(config.seed, spawn_key=(1,)).generate_state(1)[0]
    per_block = max(1, _BRIDGE_BLOCK // leaves)
    blocks = (
        _bridge_block(vals, s0, min(n, s0 + per_block), mesh, sd, scale, key)
        for s0 in range(0, n, per_block)
    )
    return leaves, blocks


def _bridge_block(vals, s0: int, s1: int, mesh: float, sd: list, scale: float, key):
    """The resolved samples of segments s0 .. s1 - 1, with len(sd) tree
    levels: (u, s0, s1, P, at, hit, pair).

    u holds the block's resolved values in grid units, each leaf start
    followed by its touches, and last the start of the next block, vals[s1],
    so that the grid sweep can take u as it is. P holds the values of the
    leaf starts and of that last sample, P[i*leaves + j] at fraction
    j/leaves of segment s0 + i; leaf i starts at u[at[i]], and the leaves
    hit touch once or, where pair holds, twice, right after their starts.
    Leaf starts in u are P / mesh and touches their levels, which are their
    values lev * mesh over mesh exactly wherever lev * mesh does not
    overflow.
    """
    depth = len(sd)
    leaves = 1 << depth
    nl = (s1 - s0) * leaves
    seg_hash = _mix32(np.arange(s0, s1, dtype=np.uint32) * _H0 + key)
    P = np.empty(nl + 1)
    P[::leaves] = vals[s0 : s1 + 1]
    for lv in range(depth):
        gap = leaves >> lv
        z = _bridge_normals(seg_hash, lv)
        P[gap // 2 :: gap] = z * sd[lv] + (P[0:-1:gap] + P[gap::gap]) * 0.5
    # nearest levels above and below each leaf's chord, in grid units
    U = P / mesh
    a, b = U[:-1], U[1:]
    A = np.floor(np.maximum(a, b)) + 1.0
    B = np.ceil(np.minimum(a, b)) - 1.0
    S, T = A - B, b - a
    # one uniform per leaf picks a case from consecutive intervals of
    # [0, 1): above then below, below then above, above only, below only;
    # p_ud, p_two, p_up and p_one are their ends, "only" taking the rest
    # of each touch probability
    p_ud = _touch(S + T, S, scale)
    p_two = _touch(S - T, S, scale)
    p_two += p_ud
    p_up = np.maximum(_touch(A - a, A - b, scale) - p_two, 0.0) + p_two
    p_one = np.maximum(_touch(a - B, b - B, scale) - p_two, 0.0) + p_up
    D = _node_hash(seg_hash, leaves, leaves) * 2.0**-32
    one, two = D < p_one, D < p_two
    first_up = (D < p_ud) | ((D >= p_two) & (D < p_up))
    # each leaf start is followed by its touches: one at the leaf's
    # midpoint time, two at its thirds
    count = np.add(one, two, dtype=np.int64)
    at = np.arange(nl) + np.cumsum(count) - count
    u = np.empty(nl + int(count.sum()) + 1)
    u[at], u[-1] = U[:-1], U[-1]
    hit = np.flatnonzero(one)
    up, pair = first_up[hit], two[hit]
    touch = at[hit] + 1
    u[touch] = B[hit] + up * S[hit]
    sub = np.flatnonzero(pair)
    second = hit[sub]
    u[touch[sub] + 1] = B[second] + ~up[sub] * S[second]
    return u, s0, s1, P, at, hit, pair


def _touch(x: np.ndarray, y: np.ndarray, scale: float) -> np.ndarray:
    """exp(x * y * scale), in x's memory: the probability that a leaf's
    bridge touches a level, x and y the level's distances from the leaf's
    ends, or the reflected distances of a touch of both levels."""
    x *= y
    x *= scale
    return np.exp(x, out=x)


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _retain_freed_memory() -> None:
    """Keep freed array memory in the process, where glibc's mallopt exists.

    Curves, merged stamps, grid hits, and the bridge resolver's output
    buffers and per-block leaf arrays are fresh arrays of 0.1-4 MB, made and
    dropped once or more per member. By default glibc
    maps such a block in on its own and unmaps it when it is freed, or trims
    the heap top back to the kernel, so the next member faults every page in
    again (about 64k minor faults per grid-qv bench pass at one thread, about
    1 with this). With blocks up to 32 MiB taken from the heap, and the heap
    trimmed only past 64 MiB of free top, freed pages are reused instead. No
    arithmetic changes.

    This is the package's one memory rule: kernels make fresh arrays and,
    but for bdg's weight rows, keep no buffers between calls. So the bridge
    resolver's per-block step, _bridge_block, makes its leaf quantities from
    plain numpy expressions, with no buffer bank or scratch arguments.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library, or no mallopt in it
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_retain_freed_memory()


_H0 = np.uint32(0x85EBCA6B)
_H1 = np.uint32(0x9E3779B9)
_H2 = np.uint32(0x68E31DA4)
_TWO_PI_32 = np.float32(2.0 * math.pi * 2.0**-32)


def _mix32(x: np.ndarray) -> np.ndarray:
    """In-place 32-bit integer hash (lowbias32 finalizer) of a uint32 array."""
    x ^= x >> np.uint32(16)
    x *= np.uint32(0x7FEB352D)
    x ^= x >> np.uint32(15)
    x *= np.uint32(0x846CA68B)
    x ^= x >> np.uint32(16)
    return x


def _node_hash(seg_hash: np.ndarray, first: int, count: int) -> np.ndarray:
    """Hash of (segment, heap node first + q) for q < count, segment-major."""
    x = np.empty(seg_hash.size * count, dtype=np.uint32)
    nodes = np.arange(first, first + count, dtype=np.uint32) * _H1
    for q in range(count):
        np.add(seg_hash, nodes[q], out=x[q::count])
    return _mix32(x)


def _bridge_normals(seg_hash: np.ndarray, lv: int) -> np.ndarray:
    """Standard normals of the midpoints at tree level lv, segment-major.

    One Box-Muller pair per parent node (node 0 for the roots) gives the
    cosine normal to its left child and the sine normal to its right child.
    """
    half = 1 << lv >> 1
    x = _node_hash(seg_hash, half, max(half, 1))
    r = np.sqrt(np.log((x + 0.5) * 2.0**-32) * -2.0)
    x ^= _H2
    angle = _mix32(x).astype(np.float32) * _TWO_PI_32
    if lv == 0:
        return r * np.cos(angle)
    z = np.empty(2 * x.size)
    z[0::2] = r * np.cos(angle)
    z[1::2] = r * np.sin(angle)
    return z
