import math

import numpy as np
import pytest

import stopbounds as sb
from stopbounds import simulate
from stopbounds.scenarios import identity_cases
from stopbounds.simulate import ValidationResult, box_rejection_sampler


UNIT_SQUARE = [([1.0, 0.0], 1.0), ([-1.0, 0.0], 0.0),
               ([0.0, 1.0], 1.0), ([0.0, -1.0], 0.0)]
TRIANGLE = [([-1.0, 0.0], 0.0), ([0.0, -1.0], 0.0), ([1.0, 1.0], 1.0)]


def test_convex_mean_uniform_square():
    sampler = box_rejection_sampler(UNIT_SQUARE, [0, 0], [1, 1])
    result = sb.validate_convex_mean(UNIT_SQUARE, sampler, 20_000, seed=1)
    assert result.passed


def test_convex_mean_two_point_edge():
    verts = np.array([[1.0, 0.0], [0.0, 1.0]])

    def sampler(rng, n):
        return verts[rng.integers(0, 2, n)]

    result = sb.validate_convex_mean(TRIANGLE, sampler, 5_000, seed=2)
    assert result.passed  # the mean sits on the closed hull's edge


def test_convex_mean_random_polytope_rejection_oracle():
    rng = np.random.default_rng(7)
    normals = rng.normal(size=(5, 2))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    halfspaces = [(normals[i], 0.8) for i in range(5)]
    sampler = box_rejection_sampler(halfspaces, [-1, -1], [1, 1])
    result = sb.validate_convex_mean(halfspaces, sampler, 20_000, seed=3)
    assert result.passed


def test_convex_mean_detects_violation():
    # claim a polytope the sampler ignores: the mean lands outside it
    fake = [([1.0, 0.0], -0.5)]
    sampler = box_rejection_sampler(UNIT_SQUARE, [0, 0], [1, 1])
    result = sb.validate_convex_mean(fake, sampler, 2_000, seed=4)
    assert not result.passed
    assert result.witness["halfspace"] == 0


def test_perspective_convex_functions_pass():
    for gfun in (lambda z: z[:, 0] ** 2, lambda z: np.abs(z[:, 0])):
        result = sb.validate_perspective(gfun, 20_000, seed=5)
        assert result.passed


def test_perspective_detects_nonconvex_within_1000_trials():
    result = sb.validate_perspective(lambda z: -z[:, 0] ** 2, 1_000, seed=6)
    assert not result.passed
    assert result.margins["trials"] <= 1_000
    assert result.witness is not None


def test_jensen_reduction_to_classical():
    scenario = {
        "gfun": lambda z: z[:, 0] ** 2,
        "y_spec": sb.point_mass(1.0),
        "z_spec": sb.bernoulli_affine(0, 1, 0.5),
    }
    result = sb.validate_identity("jensen-T3", scenario, 40_000, seed=7)
    assert result.passed


def test_wald_first_equality_on_threshold_rule():
    cases = identity_cases()["wald"]
    for case in cases[:2]:
        result = sb.validate_identity("wald-T4-I", dict(case), 30_000, seed=8)
        assert result.passed, (case["name"], result.margins)
        assert result.margins["mode"] == "equality"


def test_wald_inequality_with_strictly_convex_rule():
    case = dict(identity_cases()["wald"][0])
    case["gfun"] = lambda z: z[:, 0] ** 2
    result = sb.validate_identity("wald-T4-I", case, 30_000, seed=9)
    assert result.passed
    assert result.margins["mean_gap"] > 4.0 * result.margins["stderr"]


def test_wald_second_equality():
    case = dict(identity_cases()["wald"][0])
    result = sb.validate_identity("wald-T4-II", case, 30_000, seed=10)
    assert result.passed


@pytest.mark.parametrize("p", [1, 2, 3])
def test_lp_norm_inequality(p):
    case = dict(identity_cases()["lp"])
    case["p"] = p
    result = sb.validate_identity("lp-norm", case, 20_000, seed=11)
    assert result.passed


def test_lorden_t6_exponential_memoryless():
    scenario = {
        "spec": sb.exponential(1.0),
        "region": sb.constant_region(math.log(2.0), "ge", "stopping"),
        "schedule": sb.naturals(),
        "lam": math.log(2.0),
    }
    result = sb.validate_identity("lorden-T6", scenario, 50_000, seed=12)
    assert result.passed
    assert result.margins["bound"] == pytest.approx(1.5, abs=1e-12)
    assert result.margins["mc_overshoot"] == pytest.approx(1.0, abs=4 * result.margins["stderr"])


def test_lorden_t7_gap_schedule():
    scenario = {
        "spec": sb.exponential(1.0),
        "region": sb.constant_region(3.0, "ge", "stopping"),
        "schedule": sb.arithmetic(0, 2),
        "lam": 3.0,
    }
    result = sb.validate_identity("lorden-T7", scenario, 50_000, seed=13)
    assert result.passed
    assert result.margins["bound"] >= result.margins["mc_overshoot"]


def _reference_box_sampler(halfspaces, box_lo, box_hi):
    # one rng.uniform call and one Python test per candidate
    box_lo = np.atleast_1d(np.asarray(box_lo, dtype=float))
    box_hi = np.atleast_1d(np.asarray(box_hi, dtype=float))

    def draw(rng: np.random.Generator) -> np.ndarray:
        for _ in range(100_000):
            x = rng.uniform(box_lo, box_hi)
            if all(float(np.dot(w, x)) <= c + 1e-12 for w, c in halfspaces):
                return x
        raise RuntimeError("rejection sampler failed to hit the polytope")

    return draw


def _reference_perspective(gfun, n_trials: int, seed: int = 0, dim: int = 1):
    # one set of rng.uniform calls and three scalar gfun calls per trial
    rng = np.random.default_rng(seed)

    def f(t, s):
        return t * float(gfun(s / t))

    worst = math.inf
    for trial in range(n_trials):
        t1, t2 = rng.uniform(0.2, 3.0, 2)
        s1, s2 = rng.uniform(-3.0, 3.0, (2, dim))
        rho = rng.uniform(0.05, 0.95)
        tm = rho * t1 + (1 - rho) * t2
        sm = rho * s1 + (1 - rho) * s2
        gap = rho * f(t1, s1) + (1 - rho) * f(t2, s2) - f(tm, sm)
        worst = min(worst, gap)
        if gap < -1e-10:
            return ValidationResult("perspective-convexity", False,
                                    {"worst_gap": gap, "trials": trial + 1},
                                    {"t1": t1, "s1": s1.tolist(), "t2": t2,
                                     "s2": s2.tolist(), "rho": rho})
    return ValidationResult("perspective-convexity", True,
                            {"worst_gap": worst, "trials": n_trials})


def _bits(result):
    """A result with every float as its hex string, so -0.0 and 0.0 differ."""
    def hexed(v):
        if isinstance(v, list):
            return [hexed(x) for x in v]
        return float(v).hex() if isinstance(v, (float, np.floating)) else v
    witness = None if result.witness is None else {k: hexed(v) for k, v in result.witness.items()}
    return (result.name, bool(result.passed), {k: hexed(v) for k, v in result.margins.items()},
            witness)


@pytest.mark.parametrize("halfspaces,lo,hi", [
    ([([1.0], 0.3), ([-1.0], 0.1)], [-1.0], [1.0]),
    (TRIANGLE, [0.0, 0.0], [1.0, 1.0]),
    ([(w, 0.8) for w in np.random.default_rng(42).normal(size=(5, 2))], [-1.0, -1.0], [1.0, 1.0]),
], ids=["interval-1d", "triangle-2d", "random-polytope-2d"])
def test_box_rejection_sampler_matches_per_point_reference(halfspaces, lo, hi):
    points = box_rejection_sampler(halfspaces, lo, hi)(np.random.default_rng(17), 3_000)
    draw = _reference_box_sampler(halfspaces, lo, hi)
    rng = np.random.default_rng(17)
    reference = np.array([draw(rng) for _ in range(3_000)])
    assert points.shape == reference.shape == (3_000, len(lo))
    assert np.array_equal(points, reference)


def test_two_point_sampler_draws_the_per_call_stream():
    verts = np.array([[1.0, 0.0], [0.0, 1.0]])
    rng = np.random.default_rng(2)
    reference = np.array([verts[rng.integers(0, 2)] for _ in range(1_000)])
    assert np.array_equal(verts[np.random.default_rng(2).integers(0, 2, 1_000)], reference)


class _RowCounter:
    """Generator proxy that counts the rows ``random`` hands out."""

    def __init__(self, gen, rows):
        self._gen, self._rows = gen, rows

    def random(self, size):
        out = self._gen.random(size)
        self._rows.append(out.shape[0])
        return out


@pytest.mark.parametrize("n,cap", [(5, 100_000), (1_000, 200_000)])
def test_box_rejection_sampler_gives_up_at_its_row_cap(n, cap):
    # a polytope that lies outside its box: max(200 n, 100 000) rows, 4 n at a time
    rows = []
    draw = box_rejection_sampler([([1.0, 0.0], -1.0)], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(RuntimeError):
        draw(_RowCounter(np.random.default_rng(3), rows), n)
    assert sum(rows) == cap and set(rows) == {4 * n}


def test_box_rejection_sampler_accepts_points_within_its_tolerance():
    # a box of zero width 1e-13 outside the face x <= 0.5
    draw = box_rejection_sampler([([1.0], 0.5)], [0.5 + 1e-13], [0.5 + 1e-13])
    assert np.array_equal(draw(np.random.default_rng(0), 3), np.full((3, 1), 0.5 + 1e-13))


_SQUARE = (lambda z: float(np.sum(z**2)), lambda z: np.sum(z**2, axis=1))
_NEG_SQUARE = (lambda z: -float(np.sum(z**2)), lambda z: -np.sum(z**2, axis=1))
# convex except for a dent near s/t = 5 that few chords straddle
_DENTED = (lambda z: float(np.sum(np.abs(z)) - 3.0 * max(0.0, 0.1 - abs(z[0] - 5.0))),
           lambda z: np.sum(np.abs(z), axis=1) - 3.0 * np.maximum(0.0, 0.1 - np.abs(z[:, 0] - 5.0)))
_LINEAR = (lambda z: float(z[0]), lambda z: z[:, 0])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("gfuns,trials", [(_SQUARE, 3_000), (_NEG_SQUARE, 3_000),
                                          (_DENTED, 3_000), (_LINEAR, 3_000)],
                         ids=["square", "neg-square", "dented", "linear"])
@pytest.mark.parametrize("seed", [0, 11, 29])
def test_perspective_matches_per_trial_reference(monkeypatch, dim, gfuns, trials, seed):
    # blocks of 257 trials: the dented gfun fails in the first block on one
    # seed and in a later one on the others
    monkeypatch.setattr(simulate, "_PERSPECTIVE_BLOCK", 257)
    scalar, batched = gfuns
    result = sb.validate_perspective(batched, trials, seed, dim)
    assert _bits(result) == _bits(_reference_perspective(scalar, trials, seed, dim))


def test_perspective_calls_gfun_once_per_argument_block():
    calls = []

    def gfun(z):
        calls.append(z.shape[0])
        return np.sum(z**2, axis=1)

    assert sb.validate_perspective(gfun, 100_000, seed=5).passed
    block = simulate._PERSPECTIVE_BLOCK
    assert calls == [block] * 3 + [100_000 - block] * 3
