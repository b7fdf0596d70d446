import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stopbounds import constant_region, naturals, point_mass
from stopbounds.bounds import ALL_TAGS, BoundReport
from stopbounds.cli import CSV_COLUMNS, main
from stopbounds.harness import certify
from stopbounds.simulate import _CHUNK, SimulationEstimate, validate_identity


def write_config(tmp_path: Path, name: str, payload: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def read_rows(path: Path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    """Run a fresh interpreter with this tree's ``src`` first on the path."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)


BASE = {
    "name": "pm-threshold",
    "distribution": {"family": "point-mass", "params": {"value": 1.0}},
    "region": {"family": "constant", "level": 5.0, "orientation": "le",
               "kind": "continuity"},
    "schedule": {"kind": "all-naturals"},
    "seed": 3,
}


def test_bound_command_basic_row(tmp_path):
    cfg = dict(BASE, bounds=["T10-upper"])
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "rep.csv"
    assert main(["bound", str(path), "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["theorem"] == "T10-upper"
    assert row["direction"] == "upper"
    assert float(row["value"]) == pytest.approx(6.0, abs=1e-6)
    assert row["applicable"] == "true"
    assert row["config_hash"] and row["seed"] == "3"


def test_bound_command_flags_missing_support(tmp_path):
    cfg = dict(BASE)
    cfg["distribution"] = {"family": "exponential", "params": {"rate": 1.0}}
    cfg["bounds"] = ["T15-hyperplane-bounded"]
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "rep.csv"
    assert main(["bound", str(path), "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0]["applicable"] == "false"
    assert rows[0]["verdict"] == ""


def test_bound_command_empty_list_header_only(tmp_path):
    cfg = dict(BASE, bounds=[])
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "rep.csv"
    assert main(["bound", str(path), "--out", str(out)]) == 0
    content = out.read_text().strip().splitlines()
    assert content == [",".join(CSV_COLUMNS)]


SQRT_WALD = dict(BASE, region={"family": "power", "coef": 2.0, "exponent": 0.5},
                 bounds=["T-UseWald-lower"])


def test_bound_command_config_errors(tmp_path, capsys):
    path = write_config(tmp_path, "cfg.json", {"name": "broken"})
    assert main(["bound", str(path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["bound", str(bad)]) == 2
    cfg = dict(BASE, bounds=["T10-upper"])
    cfg["distribution"] = {"family": "product-of-scalars", "params": {"components": [
        {"family": "point-mass", "params": {"value": 1.0}},
        {"family": "point-mass", "params": {"value": 1.0}}]}}
    path = write_config(tmp_path, "mismatch.json", cfg)
    assert main(["bound", str(path)]) == 2  # region is scalar, walk is 2-d
    capsys.readouterr()
    for command, payload in [
        ("bound", dict(BROWNIAN, brownian={"diffusion": 1.0})),
        ("bound", dict(BASE, bounds=["T10-upper"], simulate={"n_runs": "lots"})),
        ("validate", {"validators": [{"which": "perspective", "gfun": "nope"}]}),
        ("bound", [BASE]),
        ("bound", dict(BASE, bounds=["T10-upper"], distribution={
            "family": "bernoulli-affine", "params": {"x0": 0, "x1": 1, "p": "half"}})),
        ("bound", dict(BASE, bounds=["no-such-tag"])),
        ("bound", dict(BASE, schedule={"kind": "arithmetic", "n0": 0, "step": "two"})),
        # a schedule kind that is no string is refused like an unknown one
        ("bound", dict(BASE, bounds=["T10-upper"], schedule={"kind": ["all-naturals"]})),
        ("bound", dict(BASE, bounds=["T10-upper"], schedule={"kind": {"all-naturals": 0}})),
        # keys the parsers do not read are refused, not ignored, at the top level too
        ("bound", dict(BASE, boundz=["T10-upper"])),
        ("bound", dict(BASE, bounds=["T10-upper"], simulte={"n_runs": 10})),
        ("certify", dict(BROWNIAN, schedule_kind="all-naturals")),
        ("validate", {"validators": [], "bounds": ["T10-upper"]}),
        ("bound", dict(BASE, bounds=["T10-upper"],
                       schedule={"kind": "arithmetic", "n0": 0, "step": 2, "ste": 3})),
        ("bound", dict(BASE, bounds=["T10-upper"], region=dict(BASE["region"], levle=6.0))),
        ("bound", dict(BASE, bounds=["T10-upper"], distribution=dict(BASE["distribution"],
                                                                     mean=1.0))),
        ("bound", dict(BASE, bounds=["T10-upper"],
                       schedule={"kind": "explicit", "values": [5], "lam": 1, "K": 1})),
        ("bound", dict(BASE, bounds=["T10-upper"], simulate={"n_runs": 10, "run": 10})),
        ("bound", dict(BROWNIAN, brownian={"drift": 0.5, "diffusion": 1.0, "drfit": 0.4})),
        ("bound", dict(BROWNIAN, simulate={"dt": 0.01, "boundary": "strict"})),
        ("bound", dict(BASE, bounds=["T10-upper"], distribution={
            "family": "product-of-scalars", "params": {"components": [BASE["distribution"]],
                                                       "dim": 1}})),
        # a simulation horizon below the schedule's first look could sample no walk
        ("certify", dict(BASE, bounds=["T10-upper"], schedule={"kind": "all-naturals", "n0": 50},
                         simulate={"n_runs": 16, "horizon": 10})),
        ("certify", dict(BASE, bounds=["T10-upper"], simulate={"n_runs": 16, "horizon": 2000},
                         schedule={"kind": "arithmetic", "n0": 0, "step": 10**6})),
        ("validate", {"validators": [{
            "which": "wald-T4-I", "distribution": BASE["distribution"], "region": BASE["region"],
            "schedule": {"kind": "arithmetic", "n0": 0, "step": 10}, "horizon": 5, "runs": 16}]}),
    ]:
        path = write_config(tmp_path, "malformed.json", payload)
        assert main([command, str(path), "--out", str(tmp_path / "rep.csv")]) == 2, payload
        assert capsys.readouterr().err.startswith("stopbounds: ")
    # seeds outside [0, 2**64) would alias in-range Philox keys
    path = write_config(tmp_path, "seeded.json", dict(BASE, bounds=["T10-upper"]))
    for seed in (-1, 2**64, 2**70):
        bad = write_config(tmp_path, "bad-seed.json", dict(BASE, bounds=["T10-upper"], seed=seed))
        for argv in (["certify", str(bad)], ["certify", str(path), "--seed", str(seed)]):
            assert main(argv + ["--runs", "16", "--out", str(tmp_path / "rep.csv")]) == 2, argv
            assert capsys.readouterr().err.startswith("stopbounds: ")
    assert main(["bound", str(path), "--seed", str(2**64 - 1),
                 "--out", str(tmp_path / "rep.csv")]) == 0
    # region parameters are config numbers too: no string, bool, NaN or
    # infinity, and a halfspace's s_coef is a nonempty list of them
    for region in ('{"family": "constant", "level": "5"}',
                   '{"family": "constant", "level": true}',
                   '{"family": "constant", "level": NaN, "orientation": "ge", "kind": "stopping"}',
                   '{"family": "constant", "level": Infinity}',
                   '{"family": "affine", "slope": 1e400, "intercept": 5.0}',
                   '{"family": "halfspace", "s_coef": 1.0, "t_coef": 0.0, "level": 5.0}',
                   '{"family": "halfspace", "s_coef": [], "t_coef": 0.0, "level": 5.0}'):
        text = json.dumps(dict(BASE, region="REGION", bounds=["T10-upper", "Lorden-T6"]))
        path = tmp_path / "region.json"
        path.write_text(text.replace('"REGION"', region))
        assert main(["bound", str(path), "--out", str(tmp_path / "rep.csv")]) == 2, region
        assert capsys.readouterr().err.startswith("stopbounds: region ")
    # hypotheses are computed, so a stale declarations key is refused by name
    path = write_config(tmp_path, "declared.json", dict(SQRT_WALD, declarations={
        "concave_rule": True}))
    capsys.readouterr()
    assert main(["bound", str(path), "--out", str(tmp_path / "rep.csv")]) == 2
    assert "unknown: 'declarations'" in capsys.readouterr().err


BROWNIAN = {
    "name": "brown",
    "region": {"family": "constant", "level": 4.0, "orientation": "le", "kind": "continuity"},
    "brownian": {"drift": 0.5, "diffusion": 1.0},
    "bounds": ["Brown1", "Brown3"],
    "seed": 1,
}


def _paths(value, prefix=()):
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replaced(config, path, new):
    if not path:
        return new
    out = json.loads(json.dumps(config))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
    return out


_FUZZ_BASES = [
    dict(BASE, distribution={"family": "uniform-interval", "params": {"lo": 0.5, "hi": 1.5}},
         region={"family": "constant", "level": 5.0, "orientation": "ge", "kind": "stopping"},
         schedule={"kind": "arithmetic", "n0": 0, "step": 2},
         bounds=["T8-lower", "T10-upper", "T12-samplemean", "Lorden-T6", "Lorden-T7"],
         simulate={"n_runs": 100, "horizon": 1000}),
    dict(BASE, distribution={"family": "bernoulli-affine", "params": {"x0": 0, "x1": 1, "p": 0.5}},
         schedule={"kind": "explicit", "values": [2, 4]},
         bounds=[tag for tag in ALL_TAGS if not tag.startswith("Brown")]),
    BROWNIAN,
]
_EXTREMES = [1e308, -1e308, 1e-308, -1e-308, math.inf, -math.inf, math.nan]
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(-50, 50),
              st.sampled_from(_EXTREMES),
              st.text(max_size=3), st.sampled_from(["ge", "stopping", "gaussian", "explicit"])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(["p", "lo", "sd", "n0", "level"]),
                                            inner, max_size=3)),
    max_leaves=5)


@st.composite
def _mutated_configs(draw):
    config = draw(st.sampled_from(_FUZZ_BASES))
    for _ in range(draw(st.integers(1, 2))):
        config = _replaced(config, draw(st.sampled_from(list(_paths(config)))), draw(_JSON))
    return config


@settings(max_examples=50, deadline=None)
@given(config=_mutated_configs())
def test_bound_command_never_raises_on_mutated_configs(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / "rep.csv"
        assert main(["bound", str(path), "--out", str(out)]) in (0, 2)
        # a value that is no number is never consumed as a bound
        rows = read_rows(out) if out.exists() else []
        assert not [r for r in rows if r["applicable"] == "true" and r["value"] == "nan"], rows


_EXTREME_CASES = {  # (command, config) for finite numbers at the ends of the float range
    "point-mass-1e308-T17": ("bound", dict(BASE, bounds=["T17-gradient"], distribution={
        "family": "point-mass", "params": {"value": 1e308}})),
    "exponential-rate-1e308": ("bound", dict(BASE, bounds=["T10-upper"], distribution={
        "family": "exponential", "params": {"rate": 1e308}})),
    "exponential-rate-1e-308": ("bound", dict(BASE, bounds=["T10-upper"], distribution={
        "family": "exponential", "params": {"rate": 1e-308}})),
    "bernoulli-x1-1e200": ("bound", dict(BASE, bounds=["T10-upper"], distribution={
        "family": "bernoulli-affine", "params": {"x0": 0, "x1": 1e200, "p": 0.5}})),
    "uniform-full-range-T6": ("bound", dict(
        BASE, bounds=["Lorden-T6"],
        region={"family": "constant", "level": 5.0, "orientation": "ge", "kind": "stopping"},
        distribution={"family": "uniform-interval", "params": {"lo": -1e308, "hi": 1e308}})),
    "brownian-diffusion-1e200": ("certify", dict(BROWNIAN, brownian={"drift": 0.5,
                                                                    "diffusion": 1e200})),
}


@pytest.mark.parametrize("case", list(_EXTREME_CASES))
def test_extreme_finite_numbers_end_without_a_traceback(tmp_path, capsys, case):
    command, config = _EXTREME_CASES[case]
    path = write_config(tmp_path, "cfg.json", config)
    out = tmp_path / "rep.csv"
    code = main([command, str(path), "--runs", "64", "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("stopbounds: ")
        return
    rows = [(r["applicable"], r["value"]) for r in read_rows(out)]
    if case == "point-mass-1e308-T17":
        # g(mean) + 1 + 0, exact: every walk stops at its first step.  The squared slope
        # gap of the closed scalar form reads inf past the float range; it once raised
        # OverflowError and made the row inapplicable
        assert code == 0 and rows == [("true", "1.0")]
        return
    # or every row is inapplicable: the overflow is named in its failed check
    assert code == 0 and [applicable for applicable, _ in rows] == ["false"]


def test_schedule_n0_defaults_to_0_for_every_kind(tmp_path):
    # an arithmetic schedule without n0 starts at 0, like every other kind
    out = tmp_path / "rep.csv"
    for n0 in ({}, {"n0": 0}):
        schedule = dict(n0, kind="arithmetic", step=2)
        path = write_config(tmp_path, "cfg.json",
                            dict(BASE, schedule=schedule, bounds=["T10-upper"]))
        assert main(["bound", str(path), "--out", str(out)]) == 0
        assert read_rows(out)[0]["value"] == "7.0"  # lam * m + K = 5 + 2


def test_bound_command_reports_on_explicit_lists(tmp_path):
    # a one-look list, and the concentration sums on a list that ends below the crossing
    tags = ["T10-upper", "T18-concentration", "T19-concentration-hyperplane", "T8-lower"]
    for schedule in ({"kind": "explicit", "values": [5]},
                     {"kind": "explicit", "values": [1, 2, 4], "n0": 0}):
        path = write_config(tmp_path, "cfg.json", dict(BASE, schedule=schedule, bounds=tags))
        out = tmp_path / "rep.csv"
        assert main(["bound", str(path), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [r["applicable"] for r in rows] == ["false", "false", "false", "true"]


def test_bound_command_reports_concentration_on_a_time_slab(tmp_path):
    # the region {t <= 3}: every walk stops at n = 4, and T18/T19 read 4
    region = {"family": "halfspace", "s_coef": [0.0], "t_coef": 1.0, "level": 3.0,
              "orientation": "le", "kind": "continuity"}
    tags = ["T18-concentration", "T19-concentration-hyperplane"]
    path = write_config(tmp_path, "cfg.json", dict(BASE, region=region, bounds=tags))
    out = tmp_path / "rep.csv"
    assert main(["bound", str(path), "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [(r["theorem"], r["applicable"], float(r["value"])) for r in rows] == [
        (tag, "true", 4.0) for tag in tags]


@pytest.mark.parametrize("d", [21, 40])
def test_bound_command_answers_vertex_bounds_in_high_dimension(tmp_path, d):
    # a walk of d fair coins below the plane sum(s) = 5 d: the vertex maximum sweeps d + 1
    # vertices, where a list of all 2**d of them grows exponentially and stopped at d = 20
    coin = {"family": "bernoulli-affine", "params": {"x0": 0, "x1": 1, "p": 0.5}}
    cfg = dict(BASE, distribution={"family": "product-of-scalars",
                                   "params": {"components": [coin] * d}},
               region={"family": "halfspace", "s_coef": [1.0] * d, "t_coef": 0.0,
                       "level": 5.0 * d, "orientation": "le", "kind": "continuity"},
               bounds=["T14-hyperplane", "T15-hyperplane-bounded"])
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "rep.csv"
    start = time.perf_counter()
    assert main(["bound", str(path), "--out", str(out)]) == 0
    assert time.perf_counter() - start < 1.0
    rows = read_rows(out)
    assert [(r["theorem"], r["applicable"]) for r in rows] == [
        ("T14-hyperplane", "true"), ("T15-hyperplane-bounded", "true")]
    # E[N] = sum_n Pr{S_n <= 5 d} is 10.57 at d = 21 and 10.54 at d = 40.  The formulas
    # read 22 and 12 on the exact plane; the plane's coefficients 2/d are rounded, and
    # each bound is the exact ratio on them rounded up: at most 8 ulps above, never below
    for row, formula in zip(rows, (22.0, 12.0)):
        assert 0.0 <= float(row["value"]) - formula <= 8 * math.ulp(formula)


@pytest.mark.parametrize("name", ["bernoulli_threshold_certify", "brownian_passage_certify"])
def test_shipped_certify_reports_are_current(tmp_path, name):
    """The committed report is what certify writes today.

    The bound columns match exactly, the Monte Carlo columns to float
    rounding.  Regenerate a report only for an intended change, with the
    CLI alone, which writes the pinned file in place:

        PYTHONPATH=src python -m stopbounds certify configs/bernoulli_threshold_certify.json
        PYTHONPATH=src python -m stopbounds certify configs/brownian_passage_certify.json
    """
    out = tmp_path / "report.csv"
    assert main(["certify", str(ROOT / "configs" / f"{name}.json"), "--out", str(out)]) == 0
    fresh, shipped = read_rows(out), read_rows(ROOT / "configs" / f"{name}.report.csv")
    assert len(fresh) == len(shipped) > 0
    for new, old in zip(fresh, shipped):
        for col in ("mc_mean", "mc_stderr"):
            assert float(new.pop(col)) == pytest.approx(float(old.pop(col)), rel=1e-12, abs=0.0)
        assert new == old


def test_shipped_validate_report_is_current(tmp_path):
    """The committed report is what validate writes today.

    Every column matches exactly, the Monte Carlo margin in ``value`` to
    float rounding.  Regenerate it only for an intended change, with the
    CLI alone, which writes the pinned file in place:

        PYTHONPATH=src python -m stopbounds validate configs/foundations_validate.json
    """
    out = tmp_path / "report.csv"
    assert main(["validate", str(ROOT / "configs" / "foundations_validate.json"),
                 "--out", str(out)]) == 0
    fresh = read_rows(out)
    shipped = read_rows(ROOT / "configs" / "foundations_validate.report.csv")
    assert len(fresh) == len(shipped) > 0
    for new, old in zip(fresh, shipped):
        assert float(new.pop("value")) == pytest.approx(float(old.pop("value")), rel=1e-12, abs=0.0)
        assert new == old


def test_certify_anchor_scenario_exits_zero(tmp_path):
    cfg = {
        "name": "bern-threshold",
        "distribution": {"family": "bernoulli-affine",
                         "params": {"x0": 0, "x1": 1, "p": 0.5}},
        "region": {"family": "constant", "level": 5.0, "orientation": "ge",
                   "kind": "stopping"},
        "schedule": {"kind": "all-naturals"},
        "bounds": ["T8-lower", "T16-chenlorden-II", "vipformula", "T-UseWald-lower"],
        "simulate": {"n_runs": 20000},
        "seed": 5,
    }
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "rep.csv"
    assert main(["certify", str(path), "--out", str(out)]) == 0
    rows = {r["theorem"]: r for r in read_rows(out)}
    assert float(rows["T8-lower"]["value"]) == pytest.approx(10.0, abs=1e-9)
    assert float(rows["T16-chenlorden-II"]["value"]) == pytest.approx(12.0, abs=1e-6)
    assert float(rows["vipformula"]["value"]) == pytest.approx(12.0, abs=1e-6)
    mc = float(rows["T8-lower"]["mc_mean"])
    assert abs(mc - 10.0) <= 4.0 * float(rows["T8-lower"]["mc_stderr"])
    assert all(r["verdict"] == "pass" for r in rows.values())


def test_certify_fails_on_wrong_manual_bound(tmp_path):
    cfg = {
        "name": "bern-threshold-bad",
        "distribution": {"family": "bernoulli-affine",
                         "params": {"x0": 0, "x1": 1, "p": 0.5}},
        "region": {"family": "constant", "level": 5.0, "orientation": "ge",
                   "kind": "stopping"},
        "schedule": {"kind": "all-naturals"},
        "bounds": ["T8-lower"],
        "manual_bounds": [{"theorem": "manual-too-small", "direction": "upper",
                           "value": 9.0}],
        "simulate": {"n_runs": 4000},
        "seed": 5,
    }
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "rep.csv"
    assert main(["certify", str(path), "--out", str(out)]) == 1
    rows = {r["theorem"]: r for r in read_rows(out)}
    assert rows["manual-too-small"]["verdict"] == "fail"
    assert rows["T8-lower"]["verdict"] == "pass"


def test_certify_brownian_drift_only_zero_stderr(tmp_path):
    cfg = {
        "name": "brown-drift",
        "region": {"family": "constant", "level": 4.0, "orientation": "le",
                   "kind": "continuity"},
        "brownian": {"drift": 0.5, "diffusion": 0.0},
        "bounds": ["Brown1"],
        "simulate": {"n_runs": 64, "dt": 0.0078125, "horizon": 64.0},
        "seed": 1,
    }
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "rep.csv"
    assert main(["certify", str(path), "--out", str(out)]) == 0
    row = read_rows(out)[0]
    assert float(row["mc_mean"]) == 8.0
    assert float(row["mc_stderr"]) == 0.0
    assert row["verdict"] == "pass"


@pytest.mark.parametrize("cfg", [
    # every walk stops at N = 7, read as 6.999999999999999 by the bounds that are exactly 7
    dict(BASE, distribution={"family": "point-mass", "params": {"value": 0.05}},
         region={"family": "constant", "level": 0.3, "orientation": "le", "kind": "continuity"},
         bounds=["T14-hyperplane", "T15-hyperplane-bounded", "T16-chenlorden-I",
                 "T16-chenlorden-II", "T16-chenlorden-III", "T17-gradient", "vipformula"],
         simulate={"n_runs": 64}),
    # the exact passage mean reads 3.999999999999999e-154 against the bounds' 4e-154
    {"name": "huge-drift", "brownian": {"drift": 1e154, "diffusion": 1.0},
     "region": {"family": "constant", "level": 4.0, "orientation": "le", "kind": "continuity"},
     "bounds": ["Brown2-lower", "Brown4"], "simulate": {"n_runs": 2000}, "seed": 1},
], ids=["point-mass-tie", "huge-drift"])
def test_certify_zero_stderr_estimate_passes_a_bound_an_ulp_away(tmp_path, cfg):
    # a mean with no spread gets four of its own ulps as slack
    out = tmp_path / "rep.csv"
    assert main(["certify", str(write_config(tmp_path, "cfg.json", cfg)), "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == len(cfg["bounds"])
    assert all(float(r["mc_stderr"]) == 0.0 and r["verdict"] == "pass" for r in rows)


def test_certify_rounding_floor_is_the_mean_ulp_not_the_bound_ulp():
    # an infinite lower bound would pass against ulp(inf) = inf
    estimate = SimulationEstimate(mean=7.0, stderr=0.0, n_runs=2, truncated=0, horizon=100.0,
                                  seed=0)
    rows = certify([BoundReport("inf-lower", "lower", math.inf),
                    BoundReport("over-lower", "lower", 7.0 + 8 * math.ulp(7.0)),
                    BoundReport("tie-lower", "lower", 7.0 + 4 * math.ulp(7.0))], estimate)
    assert [r.verdict for r in rows] == ["fail", "fail", "pass"]


def test_certify_all_truncated_exits_with_diagnostic(tmp_path, capsys):
    cfg = {
        "name": "never-stops",
        "distribution": {"family": "point-mass", "params": {"value": 1.0}},
        "region": {"family": "constant", "level": 1e9, "orientation": "ge",
                   "kind": "stopping"},
        "schedule": {"kind": "all-naturals"},
        "bounds": ["T8-lower"],
        "simulate": {"n_runs": 20, "horizon": 50},
        "seed": 1,
    }
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main(["certify", str(path), "--out", str(tmp_path / "rep.csv")]) == 3
    assert "horizon" in capsys.readouterr().err


def test_validate_command_rows_and_counterexample(tmp_path):
    cfg = {
        "name": "validators",
        "validators": [
            {"which": "convex-mean", "case": "unit-square", "samples": 4000},
            {"which": "convex-mean", "case": "two-point", "samples": 2000},
            {"which": "perspective", "gfun": "square", "trials": 4000},
            {"which": "perspective", "gfun": "neg-square", "trials": 1000},
            {"which": "jensen-T3", "gfun": "square",
             "distribution": {"family": "bernoulli-affine",
                              "params": {"x0": 0, "x1": 1, "p": 0.5}},
             "runs": 5000},
        ],
        "seed": 2,
    }
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "rep.csv"
    assert main(["validate", str(path), "--out", str(out)]) == 0
    rows = read_rows(out)
    verdicts = {r["theorem"]: r["verdict"] for r in rows}
    assert verdicts["convex-mean"] == "pass"
    assert verdicts["perspective-convexity"] == "fail"  # injected non-convex case
    passes = [r for r in rows if r["verdict"] == "pass"]
    assert len(passes) == 4


def test_validate_empty_list_header_only(tmp_path):
    path = write_config(tmp_path, "cfg.json", {"name": "empty", "validators": []})
    out = tmp_path / "rep.csv"
    assert main(["validate", str(path), "--out", str(out)]) == 0
    assert out.read_text().strip().splitlines() == [",".join(CSV_COLUMNS)]


def test_validate_unknown_tag_errors(tmp_path):
    path = write_config(tmp_path, "cfg.json",
                        {"validators": [{"which": "no-such-check"}]})
    assert main(["validate", str(path)]) == 2


def test_report_schema_stable_and_json_format(tmp_path):
    cfg = dict(BASE, bounds=["T10-upper", "T8-lower"])
    path = write_config(tmp_path, "cfg.json", cfg)
    out_csv = tmp_path / "rep.csv"
    out_json = tmp_path / "rep.json"
    assert main(["bound", str(path), "--out", str(out_csv)]) == 0
    assert main(["bound", str(path), "--out", str(out_json), "--format", "json"]) == 0
    header = out_csv.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    data = json.loads(out_json.read_text())
    assert [d["theorem"] for d in data] == ["T10-upper", "T8-lower"]
    assert set(data[0]) == set(CSV_COLUMNS)


def _strict_json(path: Path):
    """The report parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def refuse(name):
        raise ValueError(f"{path.name} holds the non-standard constant {name}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_json_reports_parse_as_strict_json(tmp_path):
    # non-finite values are written as the CSV writes them
    explicit = dict(BASE, schedule={"kind": "explicit", "values": [2, 4]},
                    bounds=["T10-upper", "T8-lower"])
    conic = dict(BASE, region={"family": "affine", "slope": 1.0, "intercept": 5.0,
                               "orientation": "le", "kind": "continuity"},
                 distribution={"family": "bernoulli-affine",
                               "params": {"x0": 0, "x1": 1, "p": 0.5}},
                 bounds=["T10-upper"])
    values = []
    for k, cfg in enumerate((explicit, conic)):
        out = tmp_path / f"bound{k}.json"
        assert main(["bound", str(write_config(tmp_path, f"b{k}.json", cfg)),
                     "--out", str(out), "--format", "json"]) == 0
        values += [row["value"] for row in _strict_json(out)]
    assert values == ["nan", 5.0, "inf"]
    certified = dict(BASE, distribution={"family": "exponential", "params": {"rate": 1.0}},
                     bounds=["T10-upper", "T11-upper-bounded"], simulate={"n_runs": 256})
    out = tmp_path / "certify.json"
    assert main(["certify", str(write_config(tmp_path, "c.json", certified)),
                 "--out", str(out), "--format", "json"]) == 0
    rows = _strict_json(out)
    assert [(r["value"], r["verdict"]) for r in rows][1] == ("nan", "inapplicable")
    assert isinstance(rows[0]["value"], float) and rows[0]["verdict"] == "pass"
    validated = {"validators": [{"which": "perspective", "gfun": "square", "trials": 100}]}
    out = tmp_path / "validate.json"
    assert main(["validate", str(write_config(tmp_path, "v.json", validated)),
                 "--out", str(out), "--format", "json"]) == 0
    assert [r["verdict"] for r in _strict_json(out)] == ["pass"]


def test_single_run_verdicts_are_refused(tmp_path, capsys):
    # one run has stderr 0, so a 4-sigma verdict would be drawn with no slack
    shipped = ROOT / "configs" / "brownian_passage_certify.json"
    bern = write_config(tmp_path, "cfg.json", dict(BASE, bounds=["T10-upper"],
                                                   simulate={"n_runs": 1}))
    wald = write_config(tmp_path, "wald.json", {"validators": [
        {"which": "wald-T4-I", "runs": 1,
         "distribution": {"family": "bernoulli-affine", "params": {"x0": 0, "x1": 1, "p": 0.5}},
         "region": {"family": "constant", "level": 5.0}, "schedule": {"kind": "all-naturals"}}]})
    for argv in (["certify", str(shipped), "--runs", "1"], ["certify", str(bern)],
                 ["certify", str(bern), "--runs", "0"], ["validate", str(wald)]):
        assert main(argv + ["--out", str(tmp_path / "rep.csv")]) == 2, argv
        assert capsys.readouterr().err.startswith("stopbounds: ")
    assert main(["certify", str(bern), "--runs", "2", "--out", str(tmp_path / "rep.csv")]) == 0
    one_run = SimulationEstimate(mean=6.0, stderr=0.0, n_runs=1, truncated=0, horizon=100.0,
                                 seed=0)
    with pytest.raises(ValueError):
        certify([BoundReport("manual", "upper", 7.0)], one_run)
    with pytest.raises(ValueError):
        validate_identity("wald-T4-I", {"spec": point_mass(1.0), "region": constant_region(5.0),
                                        "schedule": naturals()}, 1)


def test_seed_and_runs_overrides(tmp_path):
    cfg = {
        "name": "bern",
        "distribution": {"family": "bernoulli-affine",
                         "params": {"x0": 0, "x1": 1, "p": 0.5}},
        "region": {"family": "constant", "level": 5.0, "orientation": "ge",
                   "kind": "stopping"},
        "schedule": {"kind": "all-naturals"},
        "bounds": ["T8-lower"],
        "simulate": {"n_runs": 50000},
        "seed": 5,
    }
    path = write_config(tmp_path, "cfg.json", cfg)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["certify", str(path), "--seed", "9", "--runs", "2000",
                 "--out", str(out1)]) == 0
    assert main(["certify", str(path), "--seed", "9", "--runs", "2000",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    row = read_rows(out1)[0]
    assert row["seed"] == "9"


def test_worker_count_bit_identical_reports(tmp_path):
    base = {
        "name": "bern",
        "distribution": {"family": "bernoulli-affine",
                         "params": {"x0": 0, "x1": 1, "p": 0.5}},
        "region": {"family": "constant", "level": 5.0, "orientation": "ge",
                   "kind": "stopping"},
        "schedule": {"kind": "all-naturals"},
        "bounds": ["T8-lower", "T16-chenlorden-II"],
        "seed": 5,
    }
    outs = []
    for workers in (1, 8):
        cfg = dict(base, simulate={"n_runs": 20000, "workers": workers})
        path = write_config(tmp_path, f"cfg{workers}.json", cfg)
        out = tmp_path / f"rep{workers}.csv"
        assert main(["certify", str(path), "--out", str(out)]) == 0
        outs.append(out.read_text())
    # strip the config hash column: worker count is part of the config
    def strip(text):
        return [",".join(c for i, c in enumerate(line.split(",")) if i != 8)
                for line in text.splitlines()]

    assert strip(outs[0]) == strip(outs[1])


_SCIPY_PROBE = """
import sys
import stopbounds, stopbounds.cli, stopbounds.scenarios, stopbounds.overshoot as ovs
print(sorted(m for m in sys.modules
             if m.startswith(("scipy", "concurrent", "hashlib", "_hashlib"))))
stopbounds.run_discrete(stopbounds.constant_region(3.0), stopbounds.bernoulli_affine(0, 1, 0.5),
                        stopbounds.naturals(), {runs}, workers=2)
print("concurrent.futures" in sys.modules)
z = stopbounds.exponential(1.0)
law = ovs.sum_law(z, 1)
ovs.threshold_functionals(z, stopbounds.uniform_interval(0.5, 1.5), law.cdf_strict, law.partial_above)
print("scipy.integrate" in sys.modules)
"""


_NO_RANDOM_PROBE = """
import sys
from stopbounds.harness import bound_report, brownian_report
from stopbounds.scenarios import brownian_cases, certification_matrix
reports = [bound_report(tag, row["bundle"])
           for row in certification_matrix(10) for tag in row["tags"]]
reports += [brownian_report(tag, case["bundle"])
            for case in brownian_cases(10) for tag in case["tags"]]
assert len(reports) == 155
print("numpy.random" in sys.modules)
"""


def test_shipped_bound_reports_load_no_numpy_random():
    # no search and no sampled audit: a bound pass draws no random number at all
    probe = run_python("-c", _NO_RANDOM_PROBE)
    assert probe.returncode == 0, probe.stderr
    random_loaded = probe.stdout.strip()
    numpy_only = run_python("-c", "import sys, numpy; print('numpy.random' in sys.modules)")
    if numpy_only.stdout.strip() == "True":
        pytest.skip("this numpy loads numpy.random on import")
    assert random_loaded == "False"


def test_import_and_cli_runs_load_no_scipy_or_thread_pool(tmp_path):
    # importing the package and the CLI loads numpy only, and no hashlib
    # (OpenSSL) until a report is written; only walks on more than one worker
    # load concurrent.futures (and with it logging), which runs before
    # scipy.integrate loads it too; quadrature for a random threshold with a
    # density loads scipy.integrate on first use
    probe = run_python("-c", _SCIPY_PROBE.format(runs=2 * _CHUNK))  # two chunks
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["[]", "True", "True"]
    # -X importtime lists every module the CLI process imports on stderr
    # the Bernoulli certify walks two chunks on the config's one worker
    for k, argv in enumerate((
            ["bound", str(ROOT / "configs" / "bernoulli_threshold_certify.json")],
            ["certify", str(ROOT / "configs" / "bernoulli_threshold_certify.json"),
             "--runs", str(2 * _CHUNK)],
            ["certify", str(ROOT / "configs" / "brownian_passage_certify.json"),
             "--runs", "256"])):
        out = tmp_path / f"{k}.csv"
        run = run_python("-X", "importtime", "-m", "stopbounds", *argv, "--out", str(out))
        assert run.returncode == 0, run.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "stopbounds.cli" in imported and len(read_rows(out)) > 0
        assert not [name for name in imported if name.startswith(("scipy", "concurrent"))], argv
