"""Experiment harness: configs, determinism, artifacts, CLI wiring."""

import dataclasses
import importlib
import inspect
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from pwcalc import ExperimentConfig, GridSpec, PathGeneratorConfig, default_config, run
from pwcalc import bdg, cli, generate, harness, integration, lebesgue_sequence, partitions, paths
from pwcalc import quadvar, qv_at
from pwcalc.harness import (
    EXPERIMENTS,
    _non_increasing,
    parallel_map,
    thread_count,
    tree_mean,
    tree_sum,
)


def _tiny(experiment, **kw):
    base = dict(
        experiment=experiment,
        generator=PathGeneratorConfig("wiener", step=2.0**-6, seed=0),
        ensemble_size=4,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_default_configs_cover_all_experiments():
    for name in EXPERIMENTS:
        cfg = default_config(name, seed=3)
        assert cfg.experiment == name
        assert cfg.seed == 3 and cfg.generator.seed == 3
    with pytest.raises(KeyError):
        default_config("nope")


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("nope", PathGeneratorConfig("wiener"))
    with pytest.raises(ValueError):
        _tiny("sandwich", ensemble_size=0)


def test_config_json_roundtrip():
    cfg = default_config("ttv-converge", seed=9)
    doc = cfg.to_json_dict()
    assert doc["schema_version"] == 1
    assert doc["output_dir"] is None
    back = ExperimentConfig.from_json_dict(doc)
    assert back == cfg
    bad = cfg.to_json_dict()
    bad["schema_version"] = 99
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict(bad)


def test_tree_sum_matches_sum():
    vals = [0.1 * i for i in range(17)]
    assert tree_sum(vals) == pytest.approx(sum(vals), rel=1e-12)
    assert tree_sum([]) == 0.0
    assert tree_mean([2.0, 4.0]) == 3.0


def _long(n):
    """A config of n members long enough for a pool; no member is drawn."""
    gen = PathGeneratorConfig("wiener", step=1.0 / harness.PARALLEL_MIN_SAMPLES)
    return _tiny("sandwich", ensemble_size=n, generator=gen)


def test_parallel_map_is_ordered(monkeypatch):
    monkeypatch.setenv("PWCALC_THREADS", "3")
    assert thread_count() == 3
    out = parallel_map(lambda i: i * i, range(20), harness._ensemble_workers(_long(20)))
    assert out == [i * i for i in range(20)]
    monkeypatch.setenv("PWCALC_THREADS", "junk")
    assert thread_count() == 1


def test_parallel_map_pool_is_bounded_by_cpus_and_items(monkeypatch):
    pools = []

    class SerialPool:
        """Records the pool size it is asked for and starts no thread."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setenv("PWCALC_THREADS", "100000")
    cpus = harness._usable_cpus()
    for n in (2, 50):
        pools.clear()
        pool = harness._ensemble_workers(_long(n))
        assert parallel_map(lambda i: -i, range(n), pool) == [-i for i in range(n)]
        workers = min(n, cpus)
        assert pools == ([workers] if workers > 1 else [])


def test_non_increasing_slack():
    assert _non_increasing([3.0, 2.0, 2.0])
    assert _non_increasing([0.0, 1e-13, 0.0])
    assert not _non_increasing([1.0, 2.0])
    assert _non_increasing([])


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_run_deterministic_across_thread_counts(monkeypatch, pool_sizes, experiment):
    # every experiment draws its members through one runner; its ordering
    # must depend neither on the schedule nor on whether a pool runs it.
    # Members of 2^8 steps run serially; a cutoff of 2^8 puts them on a pool.
    preset = default_config(experiment, seed=1)
    gen = dataclasses.replace(preset.generator, step=2.0**-8)
    cfg = dataclasses.replace(preset, generator=gen, ensemble_size=4)
    reports = []
    for cutoff in (harness.PARALLEL_MIN_SAMPLES, 2**8):
        monkeypatch.setattr(harness, "PARALLEL_MIN_SAMPLES", cutoff)
        for threads in ("1", "4"):
            monkeypatch.setenv("PWCALC_THREADS", threads)
            reports.append(run(cfg))
    assert pool_sizes == [2]
    assert all(r.to_json_dict() == reports[0].to_json_dict() for r in reports)
    assert reports[0].pathwise_ok


def test_ensemble_workers_cutoff(monkeypatch):
    # the pool size comes from the member length alone: 2^12 segments stay
    # on the calling thread, 2^16 get one worker per member and CPU
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    short = _tiny("sandwich", generator=PathGeneratorConfig("wiener", step=2.0**-12))
    long = _tiny("sandwich", generator=PathGeneratorConfig("wiener", step=2.0**-16))
    assert (short.generator.segments, long.generator.segments) == (2**12, 2**16)
    monkeypatch.setenv("PWCALC_THREADS", "4")
    assert harness._ensemble_workers(short) == 1
    assert harness._ensemble_workers(long) == 2
    assert harness._ensemble_workers(dataclasses.replace(long, ensemble_size=1)) == 1
    monkeypatch.setenv("PWCALC_THREADS", "1")
    assert harness._ensemble_workers(long) == 1


def test_run_metadata_records_workers(monkeypatch, pool_sizes, tmp_path):
    # the pool size goes to run_metadata.json, never into report.json
    monkeypatch.setenv("PWCALC_THREADS", "2")
    docs = []
    for cutoff, workers in ((harness.PARALLEL_MIN_SAMPLES, 1), (2**6, 2)):
        monkeypatch.setattr(harness, "PARALLEL_MIN_SAMPLES", cutoff)
        out = tmp_path / str(cutoff)
        run(_tiny("sandwich", ensemble_size=2, m_lo=3, m_hi=3, output_dir=str(out)))
        assert json.loads((out / "run_metadata.json").read_text())["workers"] == workers
        docs.append((out / "report.json").read_bytes())
    assert pool_sizes == [2]
    assert docs[0] == docs[1] and b"workers" not in docs[0]


def test_run_metadata_records_minor_faults(monkeypatch, tmp_path):
    # the faults counted across run go to run_metadata.json, never into
    # report.json, and are left out where resource is missing
    cfg = _tiny("integral-converge", ensemble_size=1, m_lo=4, m_hi=5, output_dir=str(tmp_path))
    run(cfg)
    meta = json.loads((tmp_path / "run_metadata.json").read_text())
    assert isinstance(meta["minor_faults"], int) and meta["minor_faults"] >= 0
    assert b"minor_faults" not in (tmp_path / "report.json").read_bytes()
    monkeypatch.setattr(harness, "resource", None)
    run(cfg)
    assert "minor_faults" not in json.loads((tmp_path / "run_metadata.json").read_text())


def test_bdg_certify_certifies_p1_once_per_member(monkeypatch):
    # one p = 1 certificate per member serves the rows and both witness
    # checks, also when p_list lacks 1.0; the checks run unstopped, so no
    # sigma is solved
    calls = {"certify": 0, "sigma": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    for mod in (bdg, integration):
        monkeypatch.setattr(mod, "certify_path", counted("certify", mod.certify_path))
    for mod in (paths, integration):
        monkeypatch.setattr(mod, "_exit_times", counted("sigma", mod._exit_times))
    for p_list, per_member in (((1.0, 2.0), 2), ((1.5, 2.0), 3)):
        calls.update(certify=0, sigma=0)
        assert run(_tiny("bdg-certify", ensemble_size=3, p_list=p_list)).pathwise_ok
        assert calls == {"certify": 3 * per_member, "sigma": 0}


def test_integral_converge_draws_each_member_once(monkeypatch):
    # the localisation check runs on member 0 as the ensemble hands it over
    seeds = []
    generate = harness.generate
    monkeypatch.setattr(harness, "generate", lambda g: seeds.append(g.seed) or generate(g))
    rep = run(_tiny("integral-converge", ensemble_size=2, m_lo=4, m_hi=5))
    assert sorted(seeds) == [0, 1, 1_000_000_000, 1_000_000_001]
    assert [c.name for c in rep.checks][-1] == "localization-consistent"
    assert rep.pathwise_ok


def test_integral_converge_builds_g_once_per_member(monkeypatch):
    # g is the step approximation the integral of x against itself builds
    built = []
    step_approximation = integration.step_approximation
    monkeypatch.setattr(
        integration,
        "step_approximation",
        lambda f, m: built.append((f.values.tobytes(), m)) or step_approximation(f, m),
    )
    cfg = _tiny("integral-converge", ensemble_size=2, m_lo=4, m_hi=5)
    run(cfg)
    for i in (0, 1, 1_000_000_000, 1_000_000_001):
        x = harness._member(cfg, i).values.tobytes()
        assert built.count((x, cfg.integrand_level)) == 1
    # member 0 reaches no localisation level, so its localised top curve is
    # the integral's own
    x = harness._member(cfg, 0)
    assert float(np.max(np.abs(x.values))) < 1.0
    assert built.count((x.values.tobytes(), cfg.integrand_level + 2)) == 1


def test_qv_converge_member_holds_two_curves_at_a_time():
    # a preset member's seven curves take about 23 MB of traced memory at
    # once; one curve beside its predecessor, about 17 MB
    cfg = dataclasses.replace(default_config("qv-converge"), ensemble_size=1)
    run(cfg)  # warm-up: one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        run(dataclasses.replace(cfg, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_isometry_mc_member_peak_memory_is_bounded():
    # a preset member through the kernel, chord included, peaks at about
    # 5.7 MB traced; generate(..., bridge_level=8) alone peaks at about 12.2 MB
    cfg = default_config("isometry-mc")
    g = harness._member_generator(cfg, 0)

    def member():
        return quadvar._bridge_terminal_qv(generate(g), g, cfg.m_hi)

    member()  # warm-up: one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        member()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20


@pytest.mark.parametrize("mesh, offset", [(2.0**-4, 0.0), (0.1, 0.03)])
def test_terminal_qv_is_bitwise_the_qv_at_form(mesh, offset):
    grid = GridSpec(mesh, offset)
    for seed in range(4):
        x = generate(PathGeneratorConfig("wiener", step=2.0**-10, seed=seed))
        want = float(qv_at(x, lebesgue_sequence(x, grid), np.asarray([x.horizon]))[0])
        assert struct.pack("d", quadvar._terminal_qv(x, grid)) == struct.pack("d", want)


def test_bdg_certify_smoke():
    rep = run(_tiny("bdg-certify", p_list=(1.0, 2.0)))
    assert rep.pathwise_ok
    names = {c.name for c in rep.checks}
    assert {"bdg-certificates-hold", "witness-identities-exact"} <= names
    assert rep.tables["certificates"]


def test_qv_converge_constant_paths():
    cfg = ExperimentConfig(
        "qv-converge",
        PathGeneratorConfig("constant", step=2.0**-6),
        ensemble_size=3,
        m_lo=2,
        m_hi=5,
    )
    rep = run(cfg)
    gaps = [row["median_gap"] for row in rep.tables["consecutive_gaps"]]
    assert gaps == [0.0] * len(gaps)
    assert all(c.passed for c in rep.checks)
    assert "terminal-mean-matches-target" not in {c.name for c in rep.checks}


def test_sandwich_includes_fixture_rows():
    rep = run(_tiny("sandwich", ensemble_size=2, m_lo=3, m_hi=4))
    labels = {row["member"] for row in rep.tables["sandwich"]}
    assert {"zigzag-1", "zigzag-half"} <= labels
    assert rep.pathwise_ok


def test_isometry_smoke():
    rep = run(_tiny("isometry-mc", ensemble_size=50, m_hi=4))
    (chk,) = rep.checks
    assert chk.kind == "statistical" and "z" in chk.details
    assert rep.pathwise_ok  # vacuous: no pathwise checks in this experiment


def test_isometry_exact_agreement_on_constant_paths():
    # X_T^2 = QV_T = 0 on every member: the paired difference is exactly 0
    # with zero spread, which agrees (z = 0), it is not infinitely far
    cfg = ExperimentConfig(
        "isometry-mc", PathGeneratorConfig("constant", drift=0.3), ensemble_size=5, m_hi=4
    )
    (chk,) = run(cfg).checks
    assert chk.details["paired_diff_mean"] == 0.0 and chk.details["paired_diff_se"] == 0.0
    assert chk.details["z"] == 0.0
    assert chk.passed


def test_oracle_flag_adds_crosscheck():
    rep = run(_tiny("sandwich", ensemble_size=2, m_lo=3, m_hi=3, oracle=True))
    by_name = {c.name: c for c in rep.checks}
    assert "oracle-ttv-crosscheck" in by_name
    assert by_name["oracle-ttv-crosscheck"].passed


def test_artifacts_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run(_tiny("sandwich", ensemble_size=2, m_lo=3, m_hi=4, output_dir=out1))
    run(_tiny("sandwich", ensemble_size=2, m_lo=3, m_hi=4, output_dir=out2))
    with open(os.path.join(out1, "report.json"), "rb") as fh:
        b1 = fh.read()
    with open(os.path.join(out2, "report.json"), "rb") as fh:
        b2 = fh.read()
    assert b1 == b2
    assert os.path.exists(os.path.join(out1, "run_metadata.json"))
    assert os.path.exists(os.path.join(out1, "sandwich.csv"))
    doc = json.loads(b1)
    assert doc["schema_version"] == 1
    assert doc["config"]["output_dir"] is None
    assert doc["experiment"] == "sandwich"


def test_cli_runs_and_writes_report(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(_tiny("sandwich", ensemble_size=2, m_lo=3, m_hi=4).to_json_dict()))
    out = str(tmp_path / "out")
    code = cli.main(["sandwich", "--config", str(cfgfile), "--out", out])
    captured = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in captured
    assert "report written" in captured
    assert os.path.exists(os.path.join(out, "report.json"))


def test_cli_rejects_experiment_mismatch(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(_tiny("sandwich").to_json_dict()))
    with pytest.raises(SystemExit):
        cli.main(["qv-converge", "--config", str(cfgfile)])


def test_config_missing_key_is_named(tmp_path):
    with pytest.raises(ValueError, match=r"missing keys \['generator'\]"):
        ExperimentConfig.from_json_dict({"experiment": "sandwich"})
    doc = _tiny("sandwich").to_json_dict()
    del doc["generator"]["kind"]
    with pytest.raises(ValueError, match=r"generator: missing keys \['kind'\]"):
        ExperimentConfig.from_json_dict(doc)
    f = tmp_path / "c.json"
    f.write_text(json.dumps({"experiment": "sandwich"}))
    with pytest.raises(SystemExit, match=r"missing keys \['generator'\]"):
        cli.main(["sandwich", "--config", str(f)])


def test_config_unknown_key_is_named(tmp_path):
    doc = _tiny("sandwich").to_json_dict()
    doc["bogus"] = 1
    with pytest.raises(ValueError, match=r"unknown keys \['bogus'\]"):
        ExperimentConfig.from_json_dict(doc)
    del doc["bogus"]
    doc["generator"]["extra"] = 2
    with pytest.raises(ValueError, match=r"generator: unknown keys \['extra'\]"):
        ExperimentConfig.from_json_dict(doc)
    f = tmp_path / "c.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(SystemExit, match=r"unknown keys \['extra'\]"):
        cli.main(["sandwich", "--config", str(f)])


def test_config_value_of_wrong_type_is_named():
    doc = _tiny("sandwich").to_json_dict()
    doc.update(ensemble_size="3", p_list=[1.0, True], strict_mc=1, threshold="0.1")
    with pytest.raises(ValueError) as err:
        ExperimentConfig.from_json_dict(doc)
    msg = str(err.value)
    assert msg.startswith("config: ")
    for name in ("ensemble_size", "p_list", "strict_mc", "threshold"):
        assert f"{name} is " in msg
    assert "seed" not in msg and "m_hi" not in msg
    # an int where a float is expected is a number; null where allowed
    good = _tiny("sandwich").to_json_dict()
    good.update(threshold=1, output_dir=None)
    cfg = ExperimentConfig.from_json_dict(good)
    assert cfg.threshold == 1
    good = _tiny("bdg-mc").to_json_dict()
    good.update(p_list=[1, 2.5])
    assert ExperimentConfig.from_json_dict(good).p_list == (1, 2.5)
    # a document that is no object at all
    for doc in ([1, 2], "sandwich", None):
        with pytest.raises(ValueError, match=r"^config must be a JSON object$"):
            ExperimentConfig.from_json_dict(doc)


def test_generator_value_of_wrong_type_is_named():
    with pytest.raises(ValueError, match=r"generator: step is '0\.1', number expected"):
        PathGeneratorConfig.from_json_dict({"kind": "wiener", "step": "0.1"})
    with pytest.raises(ValueError) as err:
        PathGeneratorConfig.from_json_dict({"kind": "wiener", "seed": 1.5, "drift": False})
    for name in ("seed", "drift"):
        assert f"{name} is " in str(err.value)
    gen = PathGeneratorConfig.from_json_dict({"kind": "wiener", "horizon": 2, "step": 1})
    assert gen == PathGeneratorConfig("wiener", horizon=2.0, step=1.0)


def test_cli_names_value_of_wrong_type(tmp_path):
    f = tmp_path / "c.json"
    f.write_text(json.dumps(
        {"experiment": "sandwich", "generator": {"kind": "wiener"}, "ensemble_size": "3"}
    ))
    with pytest.raises(SystemExit, match=r"ensemble_size is '3', integer expected"):
        cli.main(["sandwich", "--config", str(f)])
    f.write_text(json.dumps([1, 2]))
    with pytest.raises(SystemExit, match=r"^\S+: config must be a JSON object$"):
        cli.main(["sandwich", "--config", str(f)])


def test_cli_config_that_cannot_be_read_is_one_line(tmp_path):
    for path in (tmp_path / "nope.json", tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["sandwich", "--config", str(path)])
        msg = str(err.value.code)
        assert msg.startswith(f"{path}: ") and "\n" not in msg


@pytest.mark.parametrize(
    "name,value",
    [("volatility", "NaN"), ("volatility", "Infinity"),
     ("drift", "Infinity"), ("drift", "-Infinity")],
)
def test_cli_refuses_a_non_finite_generator_value(tmp_path, name, value):
    # Python's json reads and writes NaN and Infinity; generate would fail on
    # the member's non-finite values
    doc = _tiny("bdg-mc").to_json_dict()
    doc["generator"][name] = 0.0
    f = tmp_path / "c.json"
    f.write_text(json.dumps(doc).replace(f'"{name}": 0.0', f'"{name}": {value}'))
    said = r"^\S+: volatility \(.*\) and drift \(.*\) must be finite$"
    with pytest.raises(SystemExit, match=said):
        cli.main(["bdg-mc", "--config", str(f)])


def test_empty_m_range_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="m_lo"):
        _tiny("qv-converge", m_lo=5, m_hi=3)
    doc = _tiny("sandwich").to_json_dict()
    doc.update(m_lo=5, m_hi=3)
    with pytest.raises(ValueError, match="m_lo"):
        ExperimentConfig.from_json_dict(doc)
    f = tmp_path / "c.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(SystemExit, match="m_lo"):
        cli.main(["sandwich", "--config", str(f)])
    assert _tiny("sandwich", m_lo=3, m_hi=3).m_lo == 3


@pytest.mark.parametrize(
    "field,bad",
    [
        ("c_exponents", {"c_exponents": (4, 0, 6)}),
        ("c_exponents", {"c_exponents": (-3,)}),
        ("m_lo", {"m_lo": -2000, "m_hi": -1999}),
        ("m_lo", {"m_lo": -1}),
        ("m_hi", {"m_hi": -1}),
        ("n_levels", {"n_levels": 0}),
        ("n_levels", {"n_levels": -1}),
        ("qv_level", {"qv_level": -3}),
        ("est_level", {"est_level": -2000}),
        ("integrand_level", {"integrand_level": -1}),
        ("c_exponents", {"c_exponents": (4, float("nan"))}),
        ("threshold", {"threshold": -1.0}),
        ("threshold", {"threshold": 0.0}),
        ("threshold", {"threshold": float("nan")}),
        ("c_exponents", {"c_exponents": (float("inf"),)}),
        ("c_exponents", {"c_exponents": ()}),
        ("p_list", {"p_list": (0.5,)}),
        ("p_list", {"p_list": (float("nan"),)}),
        ("p_list", {"p_list": (float("inf"),)}),
        ("p_list", {"p_list": ()}),
        ("seed", {"seed": -5}),
        ("m_lo", {"m_lo": 1075, "m_hi": 1075}),
        ("m_hi", {"m_hi": 1075}),
        ("qv_level", {"qv_level": 1075}),
        ("est_level", {"est_level": 1075}),
        ("integrand_level", {"integrand_level": 1073}),
        ("n_levels", {"n_levels": 1075}),
        ("p_list", {"p_list": (120.0,)}),
        ("p_list", {"p_list": (500.0,)}),
    ],
)
def test_config_out_of_range_is_named(tmp_path, field, bad):
    # c = m^-2: m = 0 divides by zero and -m duplicates m; 2^-m overflows,
    # or underflows past m = 1074 (integral-converge builds integrand_level + 2);
    # no localisation level makes every distance 0, and the weight 2^-n of
    # level n underflows past 1074; a NaN compares false with every bound, so
    # a sandwich stopped at it would never stop; C_p needs p >= 1 and
    # overflows a float above p ~ 110.18 (a product, to inf) and from p ~ 145
    # (a power, which raises); an empty swept list checks nothing
    # each row runs on an experiment that reads its field, and a ttv-converge
    # row sweeps a list, so neither the unread-field refusal nor the
    # empty-list rule comes first
    # the message starts with the field: an isometry-mc m_hi below 0 is no
    # fault of m_lo, which isometry-mc may not set
    experiment = {
        "c_exponents": "ttv-converge", "est_level": "ttv-converge", "threshold": "sandwich",
        "p_list": "bdg-mc", "n_levels": "distance-rates", "qv_level": "distance-rates",
        "integrand_level": "integral-converge", "m_hi": "isometry-mc",
    }.get(field, "qv-converge")
    swept = {"c_exponents": (1,)} if experiment == "ttv-converge" else {}
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        _tiny(experiment, **{**swept, **bad})
    doc = _tiny(experiment, **swept).to_json_dict()
    doc.update({k: list(v) if isinstance(v, tuple) else v for k, v in bad.items()})
    f = tmp_path / "c.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as err:
        cli.main([experiment, "--config", str(f)])
    assert str(err.value.code).startswith(f"{f}: {field} ")
    assert _tiny(experiment, **swept, m_lo=0).m_lo == 0


def test_cli_resource_limit_is_one_line_naming_the_experiment(monkeypatch, tmp_path):
    monkeypatch.setattr(partitions, "MAX_GRID_HITS", 10)
    f = tmp_path / "c.json"
    f.write_text(json.dumps(_tiny("qv-converge", ensemble_size=2, m_lo=2, m_hi=4).to_json_dict()))
    with pytest.raises(SystemExit) as err:
        cli.main(["qv-converge", "--config", str(f)])
    msg = str(err.value.code)
    assert msg.startswith("qv-converge: ") and msg.endswith("(limit 10)") and "\n" not in msg


def test_cli_seed_override():
    args = cli.build_parser().parse_args(["sandwich", "--seed", "7"])
    cfg = cli.load_config(args)
    assert cfg.seed == 7 and cfg.generator.seed == 7


def test_generator_seed_is_the_config_seed_however_built():
    built = [
        _tiny("sandwich", seed=4),
        dataclasses.replace(_tiny("sandwich"), seed=4),
        ExperimentConfig.from_json_dict(
            {**_tiny("sandwich", seed=4).to_json_dict(), "generator": {"kind": "wiener"}}
        ),
        default_config("sandwich", seed=4),
        cli.load_config(cli.build_parser().parse_args(["sandwich", "--seed", "4"])),
    ]
    for cfg in built:
        assert cfg.seed == 4 and cfg.generator.seed == 4
    cfg = default_config("qv-converge", seed=3)
    assert dataclasses.replace(cfg, seed=8).generator.seed == 8


def test_report_ignores_a_json_generator_seed(tmp_path):
    # member i is drawn at seed + i, so the generator seed a file gives has no
    # effect, and the report echoes the seed the members used
    doc = _tiny("sandwich", ensemble_size=2, m_lo=3, m_hi=4, seed=2).to_json_dict()
    reports = []
    for gen_seed in (0, 5):
        doc["generator"]["seed"] = gen_seed
        f, out = tmp_path / f"g{gen_seed}.json", tmp_path / f"out{gen_seed}"
        f.write_text(json.dumps(doc))
        assert cli.main(["sandwich", "--config", str(f), "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    echoed = json.loads(reports[0])["config"]
    assert echoed["seed"] == 2 and echoed["generator"]["seed"] == 2


def test_cli_bad_override_is_one_line_naming_it():
    with pytest.raises(SystemExit, match=r"^--seed: seed \(-5\) must be >= 0$"):
        cli.main(["sandwich", "--seed", "-5"])


def test_isometry_mc_resolves_wiener_members_on_its_check_level(monkeypatch):
    # the QV behind the check is that of each member resolved on 2^-m_hi;
    # the oracle's, constant members and qv-converge's are chords
    calls = []
    generate, resolved = harness.generate, quadvar._bridge_terminal_qv

    def resolve(x, g, level):
        assert x.values.tobytes() == generate(g).values.tobytes()
        calls.append((g.kind, g.seed, level))
        return resolved(x, g, level)

    monkeypatch.setattr(
        harness, "generate", lambda g: calls.append((g.kind, g.seed, None)) or generate(g)
    )
    monkeypatch.setattr(quadvar, "_bridge_terminal_qv", resolve)
    run(_tiny("isometry-mc", ensemble_size=6, m_hi=4, oracle=True))
    # each member's chord, then its resolved QV; then the oracle's 5 chords
    members = [("wiener", i, level) for i in range(6) for level in (None, 4)]
    oracle = [("wiener", i, None) for i in range(5)]
    assert sorted(calls, key=str) == sorted(members + oracle, key=str)
    calls.clear()
    gen = PathGeneratorConfig("constant", drift=0.3)
    run(ExperimentConfig("isometry-mc", gen, ensemble_size=2, m_hi=4))
    run(_tiny("qv-converge", ensemble_size=2, m_lo=2, m_hi=4))
    assert [(kind, level) for kind, _, level in calls] == (
        [("constant", None)] * 2 + [("wiener", None)] * 2
    )


# the fields of ExperimentConfig each experiment reads, in EXPERIMENTS order
_READS = {
    "bdg-certify": {"p_list"},
    "qv-converge": {"m_lo", "m_hi"},
    "ttv-converge": {"c_exponents", "est_level"},
    "sandwich": {"m_lo", "m_hi", "threshold"},
    "isometry-mc": {"m_hi"},
    "bdg-mc": {"p_list"},
    "integral-converge": {"m_lo", "m_hi", "integrand_level"},
    "distance-rates": {"m_lo", "m_hi", "n_levels", "qv_level"},
}

# a value of each field some experiment reads: not its default, not any
# preset's, and in range wherever it is read
_MATTERS = {
    "m_lo": 5, "m_hi": 6, "c_exponents": (4, 5), "p_list": (3.0,), "n_levels": 4,
    "qv_level": 3, "est_level": 5, "integrand_level": 2, "threshold": 0.1,
}


def _small(experiment):
    """experiment's preset on 2 members of 2^8 steps."""
    preset = default_config(experiment)
    gen = dataclasses.replace(preset.generator, step=2.0**-8)
    return dataclasses.replace(preset, generator=gen, ensemble_size=2)


def test_one_row_per_experiment_names_the_fields_it_reads():
    table = harness._EXPERIMENT_TABLE
    assert EXPERIMENTS == tuple(_READS)
    assert {name: set(row.reads) for name, row in table.items()} == _READS
    assert set(harness._EXPERIMENT_FIELDS) == set(_MATTERS) == set().union(*_READS.values())
    # of 8 x 9 settable values, these have an effect
    assert sum(map(len, _READS.values())) == 17
    with pytest.raises(ValueError) as err:
        _tiny("isometry-mc", p_list=(2.0,))
    assert str(err.value) == "p_list is not read by isometry-mc; leave it at (1.0, 1.5, 2.0, 3.0)"
    # an unread field set to its default is no change, also as a list
    assert _tiny("sandwich", p_list=[1.0, 1.5, 2.0, 3.0], c_exponents=[]).p_list == (
        1.0, 1.5, 2.0, 3.0
    )


def test_cli_docstring_table_is_the_experiment_table():
    # cli's docstring copies the fields each experiment reads, one line each
    lines = cli.__doc__.split("Each experiment reads some")[1].split("\n\n")[1].splitlines()
    documented = dict(line.split(maxsplit=1) for line in lines)
    assert list(documented) == list(EXPERIMENTS)
    table = harness._EXPERIMENT_TABLE
    assert documented == {name: ", ".join(row.reads) for name, row in table.items()}


@pytest.mark.parametrize(
    "experiment,name",
    [(e, name) for e, reads in _READS.items() for name in _MATTERS if name not in reads],
)
def test_a_field_the_experiment_does_not_read_is_refused(tmp_path, experiment, name):
    base = _small(experiment)
    value = _MATTERS[name]
    json_value = list(value) if isinstance(value, tuple) else value
    kw = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
    routes = (
        lambda: ExperimentConfig(**{**kw, name: value}),
        lambda: dataclasses.replace(base, **{name: value}),
        lambda: ExperimentConfig.from_json_dict({**base.to_json_dict(), name: json_value}),
    )
    said = f"{name} is not read by {experiment}; leave it at "
    for route in routes:
        with pytest.raises(ValueError) as err:
            route()
        assert str(err.value).startswith(said) and "\n" not in str(err.value)
    f = tmp_path / "c.json"
    f.write_text(json.dumps({**base.to_json_dict(), name: json_value}))
    with pytest.raises(SystemExit) as err:
        cli.main([experiment, "--config", str(f)])
    msg = str(err.value.code)
    assert msg.startswith(f"{f}: {said}") and "\n" not in msg


@pytest.mark.parametrize(
    "experiment,name", [(e, name) for e, reads in _READS.items() for name in sorted(reads)]
)
def test_each_field_the_experiment_reads_moves_its_tables(experiment, name):
    base = _small(experiment)
    moved = dataclasses.replace(base, **{name: _MATTERS[name]})
    assert run(moved).to_json_dict()["tables"] != run(base).to_json_dict()["tables"]


def test_cli_strict_mc_promotes_statistical_failures(tmp_path, capsys):
    # drift-only paths have zero qv, so the wiener terminal target of
    # horizon * volatility^2 = 0 is missed with zero spread: z is infinite
    cfg = ExperimentConfig(
        "qv-converge",
        PathGeneratorConfig("wiener", step=2.0**-6, volatility=0.0, drift=1.0),
        ensemble_size=2,
        m_lo=2,
        m_hi=5,
    )
    f = tmp_path / "c.json"
    f.write_text(json.dumps(cfg.to_json_dict()))
    loose = cli.main(["qv-converge", "--config", str(f)])
    out_loose = capsys.readouterr().out
    strict = cli.main(["qv-converge", "--config", str(f), "--strict-mc"])
    out_strict = capsys.readouterr().out
    assert loose == 0 and "[WARN]" in out_loose
    assert strict == 1 and "[FAIL]" in out_strict


@pytest.mark.parametrize(
    "module,name,params",
    [
        ("partitions", "_grid_hits", ("path", "d", "r")),
        ("truncvar", "_ttv_batch", ("values",)),
        ("bdg", "certificate_p", ("x",)),
        ("integration", "step_approximation", ("f", "m")),
        ("harness", "run", ("config",)),
    ],
)
def test_parameter_names_the_bench_tracer_binds(module, name, params):
    # perfbench/tracer.py reads these arguments by name from the bound call
    fn = getattr(importlib.import_module(f"pwcalc.{module}"), name)
    assert set(params) <= set(inspect.signature(fn).parameters)
