"""The four benchmark workloads, built from a seed alone.

A workload is a fixed list of calls into pwcalc's public API: experiment
configs handed to `pwcalc.run`, the call the CLI makes, and for `certify`
a composition of `partitions`, `bdg` and `integration` functions on long
level sequences. Ensemble sizes are scaled down from the presets so that
one pass takes 0.3-1.3 s on a 2-core box, and a run's median is taken over
10-30 passes per thread count. README.md says why each workload exists.

Every pwcalc function is looked up as `pwcalc.<name>` at call time, never
bound here with `from pwcalc import ...`, so the tracer's rebinding of the
package attributes reaches these calls too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pwcalc

# (experiment, ensemble size, generator step or None for the preset's step);
# experiment j of a workload draws its members from seed + SEED_STRIDE * j,
# so two experiments never share a path and repeated work is only the
# repetition inside one experiment
_RUNS = {
    "grid-qv": (("qv-converge", 4, None), ("isometry-mc", 32, None)),
    # the preset step 2^-16 makes the _ttv_batch column loop alone take ~4 s;
    # 2^-11 keeps its shape (many columns, few rows) at a thirty-second of it
    "variation": (("ttv-converge", 16, 2.0**-11), ("sandwich", 2, None)),
    "certify": (("bdg-certify", 10, None), ("bdg-mc", 100, None)),
    "distances": (("distance-rates", 1, None), ("integral-converge", 1, None)),
}

# certify's composed calls: custom-seeded paths at a fine step, cut by meshes
# that give K ~ 750 (dense certificate kernel, K <= 1200) and K ~ 2450
# (per-index loop, K > 1200); the presets only reach K ~ 100
CERTIFY_PATHS = 2
CERTIFY_STEP = 2.0**-14
CERTIFY_MESHES = (2.0**-5, 2.0**-6)
CERTIFY_P = (1.0, 1.5, 2.0, 3.0)

# the harness's tolerance for the witness identity (witness-identities-exact)
WITNESS_TOL = 1e-9
SEED_STRIDE = 10_000

# Exact span counts on the seed, with 2 members each; a self-test that the
# tracer sees every call, whichever module's import it goes through.
SELFTEST = (
    ("qv-converge", {
        "partitions.lebesgue_sequence": 14,
        "partitions._grid_hits": 14,
        "paths.generate": 2,
    }),
    ("distance-rates", {
        "partitions.lebesgue_sequence": 252,
        "partitions._grid_hits": 342,
        "integration.step_approximation": 90,
        "quadvar.qv_estimate_dyadic": 36,
    }),
)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple
    certify_paths: tuple  # PathGeneratorConfig per composed certify path


def experiment_config(experiment: str, seed: int, size: int, step: float | None = None):
    cfg = pwcalc.default_config(experiment, seed)
    if step is not None:
        cfg = dataclasses.replace(cfg, generator=dataclasses.replace(cfg.generator, step=step))
    return dataclasses.replace(cfg, ensemble_size=size)


def build(name: str, seed: int) -> Workload:
    if name not in _RUNS:
        raise ValueError(f"unknown workload {name!r}")
    configs = tuple(
        experiment_config(exp, seed + SEED_STRIDE * j, n, step)
        for j, (exp, n, step) in enumerate(_RUNS[name])
    )
    paths = ()
    if name == "certify":
        paths = tuple(
            pwcalc.PathGeneratorConfig(
                "custom-seeded", step=CERTIFY_STEP, seed=seed + SEED_STRIDE * len(configs) + i
            )
            for i in range(CERTIFY_PATHS)
        )
    return Workload(name, configs, paths)


def run_pass(w: Workload) -> list:
    """One pass: every call of the workload, in a fixed order. Returns the
    outputs unchecked, so that checking stays outside the timed region."""
    out = [pwcalc.run(cfg) for cfg in w.configs]
    for gen in w.certify_paths:
        x = pwcalc.generate(gen)
        big = 1.0 + float(abs(x.values).max())
        for mesh in CERTIFY_MESHES:
            seq = pwcalc.lebesgue_sequence(x, pwcalc.GridSpec(mesh, 0.0))
            certs = [pwcalc.certify_path(x, seq, p) for p in CERTIFY_P]
            out.append((len(seq), certs, pwcalc.witness_identity_gap(x, seq, big)))
    return out


def _report_bytes(report) -> bytes:
    # the bytes the harness writes to report.json
    return (json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n").encode()


def check(w: Workload, outputs: list) -> tuple[dict, bool]:
    """Digest of each part of a pass and whether every pathwise check held.

    Statistical checks are not looked at: several are red by design.
    """
    digests = {}
    ok = True
    for cfg, report in zip(w.configs, outputs):
        digests[cfg.experiment] = hashlib.sha256(_report_bytes(report)).hexdigest()
        ok = ok and report.pathwise_ok
    composed = outputs[len(w.configs):]
    if composed:
        h = hashlib.sha256()
        for k, certs, gap in composed:
            h.update(f"{k} {gap!r}".encode())
            for cert in certs:
                ok = ok and cert.holds
                for weights in (cert.h, cert.f, cert.g):
                    if weights is not None:
                        h.update(weights.tobytes())
            ok = ok and gap <= WITNESS_TOL
        digests["certify-composed"] = h.hexdigest()
    return digests, ok


def pass_digest(digests: dict) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
