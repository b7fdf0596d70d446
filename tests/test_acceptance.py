"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The certification matrix (criterion 1) is computed once and shared
with the anchor checks.
"""

import csv
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

import stopbounds as sb
from stopbounds.cli import main as cli_main
from stopbounds.harness import bound_report, brownian_report, certify
from stopbounds.scenarios import brownian_cases, certification_matrix, identity_cases
from stopbounds.simulate import (
    box_rejection_sampler,
    run_brownian,
    run_discrete,
    validate_convex_mean,
    validate_identity,
    validate_perspective,
)

SEED = 20260809
UPPER_TAGS_REQUIRED = (
    "T10-upper", "T11-upper-bounded", "T12-samplemean", "T13-samplemean-naturals",
    "T-try88-bounded", "T14-hyperplane", "T15-hyperplane-bounded",
    "T16-chenlorden-I", "T16-chenlorden-II", "T16-chenlorden-III",
    "T17-gradient", "vipformula", "T18-concentration", "T19-concentration-hyperplane",
)
LOWER_TAGS_REQUIRED = ("T8-lower", "T-UseWald-lower")

_cache = {}


def _announce(cid, fn):
    try:
        fn()
    except BaseException:
        print(f"acceptance criterion {cid}: FAIL")
        raise
    print(f"acceptance criterion {cid}: PASS")


def matrix_results():
    if "matrix" not in _cache:
        start = time.perf_counter()
        results = []
        for i, row in enumerate(certification_matrix(n_runs=100_000)):
            bundle = row["bundle"]
            reports = [bound_report(tag, bundle) for tag in row["tags"]]
            estimate = run_discrete(bundle.region, bundle.spec, bundle.schedule,
                                    bundle.n_runs, bundle.horizon, SEED + i,
                                    overshoot_level=row["overshoot_level"])
            results.append({"bundle": bundle, "row": row, "reports": reports,
                            "estimate": estimate,
                            "cert": certify(reports, estimate)})
        _cache["matrix"] = results
        _cache["matrix_elapsed"] = time.perf_counter() - start
    return _cache["matrix"]


def brownian_results():
    if "brownian" not in _cache:
        start = time.perf_counter()
        results = []
        for i, row in enumerate(brownian_cases()):
            bundle = row["bundle"]
            reports = [brownian_report(tag, bundle) for tag in row["tags"]]
            estimate = run_brownian(bundle.region, bundle.drift, bundle.diffusion,
                                    bundle.dt, bundle.n_runs, bundle.horizon,
                                    SEED + 100 + i)
            results.append({"bundle": bundle, "reports": reports,
                            "estimate": estimate,
                            "cert": certify(reports, estimate)})
        _cache["brownian"] = results
        _cache["brownian_elapsed"] = time.perf_counter() - start
    return _cache["brownian"]


def test_criterion_1_sandwich_certification_suite():
    def run():
        results = matrix_results()
        brownian = brownian_results()
        # scenario span: >= 12 scenarios over 3 boundary shapes, 4 increment
        # families, 3 schedule kinds
        assert len(results) >= 12
        boundaries = {r["bundle"].region.family["family"] for r in results}
        assert {"constant", "affine", "power"} <= boundaries
        families = {r["bundle"].spec.family for r in results}
        assert {"point-mass", "bernoulli-affine", "uniform-interval",
                "exponential"} <= families
        kinds = {r["bundle"].schedule.kind for r in results}
        assert {"all-naturals", "arithmetic", "geometric"} <= kinds

        passed = {}
        for res in results:
            assert res["estimate"].truncated == 0, res["bundle"].name
            assert res["estimate"].n_runs == 100_000
            for cert_row in res["cert"]:
                assert cert_row.verdict != "fail", (res["bundle"].name, cert_row)
                if cert_row.verdict == "pass":
                    passed.setdefault(cert_row.theorem, []).append(res["bundle"].name)
        for res in brownian:
            for cert_row in res["cert"]:
                assert cert_row.verdict != "fail", (res["bundle"].name, cert_row)
                if cert_row.verdict == "pass":
                    passed.setdefault(cert_row.theorem, []).append(res["bundle"].name)
        for tag in UPPER_TAGS_REQUIRED + LOWER_TAGS_REQUIRED + (
                "Brown2-lower", "Brown4"):
            assert tag in passed, f"{tag} never certified applicable"
        elapsed = _cache["matrix_elapsed"] + _cache["brownian_elapsed"]
        assert elapsed < 300.0, f"suite took {elapsed:.1f}s"

    _announce(1, run)


def test_criterion_2_exact_anchors():
    def run():
        results = {r["bundle"].name: r for r in matrix_results()}
        anchor = results["const-bernoulli-stopping"]
        est = anchor["estimate"]
        assert abs(est.mean - 10.0) <= 4.0 * est.stderr
        values = {rep.theorem: rep.value for rep in anchor["reports"]}
        assert values["T16-chenlorden-II"] == pytest.approx(12.0, abs=1e-6)
        assert values["vipformula"] == pytest.approx(12.0, abs=1e-6)
        region = sb.affine_region(1.0, 10.0, "ge", "stopping")
        assert sb.stopping_region_lower_bound(region, 2.0).value == pytest.approx(
            10.0, abs=1e-9)
        assert sb.stopping_region_lower_bound(region, 1.0).value == math.inf

    _announce(2, run)


def test_criterion_3_lorden_suite():
    def run():
        lam = math.log(2.0)
        scenario = {"spec": sb.exponential(1.0),
                    "region": sb.constant_region(lam, "ge", "stopping"),
                    "schedule": sb.naturals(), "lam": lam}
        result = validate_identity("lorden-T6", scenario, 100_000, SEED + 31)
        assert result.passed
        assert result.margins["bound"] == pytest.approx(1.5, abs=1e-12)
        assert abs(result.margins["mc_overshoot"] - 1.0) <= 4.0 * result.margins["stderr"]

        scenario = {"spec": sb.exponential(1.0),
                    "region": sb.constant_region(3.0, "ge", "stopping"),
                    "schedule": sb.arithmetic(0, 2), "lam": 3.0}
        result = validate_identity("lorden-T7", scenario, 100_000, SEED + 32)
        assert result.passed
        assert result.margins["bound"] >= result.margins["mc_overshoot"]

    _announce(3, run)


def test_criterion_4_identity_suite():
    def run():
        for i, case in enumerate(identity_cases()["wald"]):
            result = validate_identity("wald-T4-I", dict(case), 30_000, SEED + 41 + i)
            assert result.passed, (case["name"], result.margins)
            assert result.margins["mode"] == "equality"
        convex_case = dict(identity_cases()["wald"][0])
        convex_case["gfun"] = lambda z: z[:, 0] ** 2
        result = validate_identity("wald-T4-I", convex_case, 30_000, SEED + 44)
        assert result.passed
        assert result.margins["mean_gap"] > 4.0 * result.margins["stderr"]
        for p in (1, 2, 3):
            case = dict(identity_cases()["lp"])
            case["p"] = p
            result = validate_identity("lp-norm", case, 30_000, SEED + 45 + p)
            assert result.passed, (p, result.margins)

    _announce(4, run)


def test_criterion_5_geometry_equivalences():
    def run():
        # slice distances: the region's closed form vs the hyperplane's
        for region, mu in ((sb.constant_region(5.0), 0.5),
                           (sb.affine_region(0.5, -1.0, "ge"), 0.25)):
            hyp = sb.supporting_hyperplane(region, mu)
            m = int(math.ceil(hyp.anchor))
            for n in range(m + 1, 8 * m + 1):
                assert sb.slice_distance(region, n, mu) == pytest.approx(
                    sb.hyperplane_slice_distance(hyp, n, mu), abs=1e-12)
        # vertex maxima equal dense cube grids for d in {1, 2, 3}
        cases = [
            (sb.Hyperplane([1.0], 0.0, 5.0, 5.0),
             sb.Slab([0.9], [1.1], [-0.5], [0.5])),
            (sb.Hyperplane([2.0, 1.0], 0.5, 7.0, 3.0),
             sb.Slab([0.4, 0.8], [0.6, 1.2], [-0.3, -0.2], [0.3, 0.2])),
            (sb.Hyperplane([1.0, -0.5, 2.0], 1.5, 9.0, 2.0),
             sb.Slab([0.2, 0.1, 0.5], [0.4, 0.3, 0.9],
                     [-0.1, -0.2, -0.3], [0.1, 0.2, 0.3])),
        ]
        for hyp, slab in cases:
            res = sb.vertex_fraction_max(hyp, slab)
            a, ls, us, li, ui = map(np.array, (hyp.s_coef, slab.lower_slope, slab.upper_slope,
                                               slab.lower_icept, slab.upper_icept))
            axes = [np.linspace(0.0, 1.0, 50)] * slab.dim
            grid = max(
                (hyp.level - float(a @ (ui + np.array(q) * (li - ui))))
                / (hyp.t_coef + float(a @ (us + np.array(q) * (ls - us))))
                for q in itertools.product(*axes))
            assert res.value == pytest.approx(grid, abs=1e-9)
        # supporting hyperplane of the square-root boundary at unit mean
        hyp = sb.supporting_hyperplane(sb.power_region(2.0, 0.5), 1.0)
        assert hyp.s_coef[0] == pytest.approx(2.0, abs=1e-12)
        assert hyp.t_coef == pytest.approx(-1.0, abs=1e-12)
        assert hyp.level == pytest.approx(4.0, abs=1e-12)

    _announce(5, run)


def test_criterion_6_brownian_suite():
    def run():
        results = {r["bundle"].name: r for r in brownian_results()}
        drift_only = results["brown-drift-only"]
        assert drift_only["estimate"].mean == 8.0  # exactly level / drift
        assert drift_only["estimate"].stderr == 0.0
        values = {rep.theorem: rep.value for rep in drift_only["reports"]}
        assert values["Brown1"] == pytest.approx(8.0, abs=1e-9)

        diffusive = results["brown-diffusive"]
        est = diffusive["estimate"]
        tau = next(rep.value for rep in diffusive["reports"]
                   if rep.theorem == "Brown1")
        assert tau == pytest.approx(8.0, abs=1e-9)
        band = max(4.0 * est.stderr,
                   2.0 * est.diagnostics["discretization_diagnostic"])
        assert abs(est.mean - tau) <= band

        line = results["brown-stopping-line"]
        lower = next(rep.value for rep in line["reports"]
                     if rep.theorem == "Brown2-lower")
        assert lower == pytest.approx(10.0, abs=1e-9)
        assert lower <= line["estimate"].mean + max(
            4.0 * line["estimate"].stderr,
            2.0 * line["estimate"].diagnostics["discretization_diagnostic"])

    _announce(6, run)


@pytest.mark.parametrize("seed", range(401, 411))
def test_brownian_cases_certify_on_seed(seed, tmp_path):
    # the exact passage sampler has no grid bias, so every applicable
    # Brownian bound must pass on any seed at the default sizes
    for row in brownian_cases():
        bundle = row["bundle"]
        reports = [brownian_report(tag, bundle) for tag in row["tags"]]
        estimate = run_brownian(bundle.region, bundle.drift, bundle.diffusion, bundle.dt,
                                bundle.n_runs, bundle.horizon, seed)
        assert estimate.diagnostics["passage"] == "exact-inverse-gaussian"
        verdicts = {r.theorem: r.verdict for r in certify(reports, estimate)}
        assert set(verdicts.values()) == {"pass"}, (bundle.name, verdicts)
    config = Path(__file__).resolve().parents[1] / "configs" / "brownian_passage_certify.json"
    out = tmp_path / "report.csv"
    assert cli_main(["certify", str(config), "--seed", str(seed), "--out", str(out)]) == 0
    with open(out) as fh:
        assert {row["verdict"] for row in csv.DictReader(fh)} == {"pass"}


def test_criterion_7_validator_suite():
    def run():
        halfspaces = [([1.0, 0.0], 1.0), ([-1.0, 0.0], 0.0),
                      ([0.0, 1.0], 1.0), ([0.0, -1.0], 0.0)]
        sampler = box_rejection_sampler(halfspaces, [0, 0], [1, 1])
        result = validate_convex_mean(halfspaces, sampler, 100_000, SEED + 71)
        assert result.passed
        result = validate_perspective(lambda z: z[:, 0] ** 2, 100_000, SEED + 72)
        assert result.passed
        # injected counterexamples must surface within 1000 trials
        result = validate_perspective(lambda z: -z[:, 0] ** 2, 1_000, SEED + 73)
        assert not result.passed and result.margins["trials"] <= 1_000
        fake = [([1.0, 0.0], -0.5)]
        result = validate_convex_mean(fake, sampler, 1_000, SEED + 74)
        assert not result.passed

    _announce(7, run)


def test_criterion_8_reproducibility_across_workers(tmp_path):
    def run():
        import json

        base = {
            "name": "repro",
            "distribution": {"family": "bernoulli-affine",
                             "params": {"x0": 0, "x1": 1, "p": 0.5}},
            "region": {"family": "constant", "level": 5.0, "orientation": "ge",
                       "kind": "stopping"},
            "schedule": {"kind": "all-naturals"},
            "bounds": ["T8-lower", "T16-chenlorden-II", "vipformula",
                       "T-UseWald-lower"],
            "seed": 17,
        }
        reports = []
        for workers in (1, 8):
            cfg = dict(base, simulate={"n_runs": 20_000, "workers": workers})
            path = tmp_path / f"cfg-{workers}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"rep-{workers}.csv"
            assert cli_main(["certify", str(path), "--out", str(out)]) == 0
            text = out.read_text()
            # drop the config-hash column: the worker count is configuration
            rows = [",".join(col for i, col in enumerate(line.split(","))
                             if i != 8)
                    for line in text.splitlines()]
            reports.append(rows)
        assert reports[0] == reports[1]

    _announce(8, run)
