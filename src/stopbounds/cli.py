"""Batch front-end: JSON experiment configs in, CSV/JSON certification reports out.

Three subcommands: ``bound`` computes the requested theorem bounds, ``certify``
also simulates and checks every applicable bound against the Monte Carlo
estimate (exit 0 only when all comparisons pass), and ``validate`` runs the
foundational-inequality validators.  Reports carry the config hash and seed
on every row so any result can be replayed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import moments as mm
from . import schedules as sch
from .bounds import ALL_TAGS, BoundReport
from .geometry import region_from_family
from .harness import BrownianBundle, ScenarioBundle, bound_report, brownian_report, certify
from .simulate import (
    AllTruncatedError,
    box_rejection_sampler,
    run_brownian,
    run_discrete,
    validate_convex_mean,
    validate_identity,
    validate_perspective,
)

CSV_COLUMNS = ("scenario", "theorem", "direction", "value", "applicable",
               "mc_mean", "mc_stderr", "verdict", "config_hash", "seed")


class ConfigError(ValueError):
    """Malformed experiment configuration."""


def config_hash(config: dict) -> str:
    import hashlib  # loads OpenSSL, which only a written report needs

    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    return value


def _keys(value, allowed, what: str) -> dict:
    """``value`` as a JSON object holding no key outside ``allowed``.

    A misspelt or stale key would otherwise be ignored without a word.
    """
    unknown = sorted(set(_object(value, what)) - set(allowed))
    if unknown:
        raise ConfigError(f"{what} takes the keys {', '.join(allowed)}; "
                          f"unknown: {', '.join(map(repr, unknown))}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a JSON list, got {value!r}")
    return value


def _choice(value, allowed, what: str):
    if value not in allowed:
        raise ConfigError(f"{what} must be one of {', '.join(allowed)}; got {value!r}")
    return value


def _real(value, what: str, kind=float, minimum=None):
    """``value`` as a finite float (or an int, for ``kind=int``) of at least ``minimum``."""
    if value is None:
        raise ConfigError(f"config key {what!r} is required")
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max or (kind is int and value != int(value))
            or (minimum is not None and value < minimum)):
        expected = "an integer" if kind is int else "a finite number"
        floor = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{what} must be {expected}{floor}, got {value!r}")
    return kind(value)


def _seed(value, what: str) -> int:
    """A seed in [0, 2**64), the range of the Philox key word it becomes."""
    seed = _real(value, what, int, 0)
    if seed >= 2**64:
        raise ConfigError(f"{what} must be below 2**64, got {value!r}")
    return seed


def _reals(value, what: str):
    """A number, or a nonempty list of numbers, as given."""
    if isinstance(value, list) and value:
        return [_real(v, what) for v in value]
    return _real(value, what)


def spec_from_config(cfg: dict) -> mm.DistributionSpec:
    cfg = _keys(cfg, ("family", "params"), "distribution")
    family = cfg.get("family")
    params = _object(cfg.get("params", {}), "distribution params")
    try:
        if family == "product-of-scalars":
            _keys(params, ("components",), "product-of-scalars params")
            comps = _list(params.get("components"), "product-of-scalars components")
            return mm.product(spec_from_config(c) for c in comps)
        return mm.DistributionSpec(family, params)
    except mm.ParameterError as exc:
        raise ConfigError(f"bad distribution config: {exc}") from exc


def region_from_config(cfg: dict):
    spec = dict(_object(cfg, "region"))
    spec.setdefault("orientation", "le")
    spec.setdefault("kind", "continuity")
    _choice(spec["orientation"], ("le", "ge"), "region orientation")
    for key in spec:  # every family parameter is a number; s_coef a nonempty list, even at d = 1
        what = f"region {key}"
        if key == "s_coef":
            spec[key] = _reals(_list(spec[key], what), what)
        elif key not in ("family", "orientation", "kind"):
            spec[key] = _real(spec[key], what)
    try:
        return region_from_family(spec)
    except Exception as exc:
        raise ConfigError(f"bad region config: {exc}") from exc


_SCHEDULE_KEYS = {"all-naturals": ("kind", "n0"), "arithmetic": ("kind", "n0", "step"),
                  "geometric": ("kind", "first", "ratio", "n0"),
                  "explicit": ("kind", "values", "n0")}


def schedule_from_config(cfg: dict) -> sch.SampleSchedule:
    cfg = _object(cfg, "schedule")
    kind = _choice(cfg.get("kind"), tuple(_SCHEDULE_KEYS), "schedule kind")
    _keys(cfg, _SCHEDULE_KEYS[kind], f"schedule kind {kind!r}")
    n0 = _real(cfg.get("n0", 0), "schedule n0", int)
    try:
        if kind == "all-naturals":
            return sch.naturals(n0)
        if kind == "arithmetic":
            return sch.arithmetic(n0, _real(cfg.get("step"), "step", int))
        if kind == "geometric":
            return sch.geometric(_real(cfg.get("first"), "first", int),
                                 _real(cfg.get("ratio"), "ratio"), n0)
        values = _list(cfg.get("values"), "explicit schedule values")
        return sch.explicit([_real(v, "schedule values", int) for v in values], n0)
    except sch.ScheduleError as exc:
        raise ConfigError(f"bad schedule config: {exc}") from exc


_CONFIG_KEYS = {"bound": ("name", "seed", "distribution", "region", "schedule", "brownian",
                          "bounds", "simulate"), "validate": ("name", "seed", "validators")}
_CONFIG_KEYS["certify"] = (*_CONFIG_KEYS["bound"], "manual_bounds")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return _object(config, "the config")


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def _json_cell(value):
    """A non-finite float as the CSV writes it, since strict JSON has no NaN or Infinity."""
    return _fmt(value) if isinstance(value, float) and not math.isfinite(value) else value


def write_report(rows, columns, path: str, fmt: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump([{c: _json_cell(row.get(c, "")) for c in columns} for row in rows],
                      fh, indent=2, default=_fmt, allow_nan=False)
            fh.write("\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c, "")) for c in columns])


def _build_discrete_bundle(config: dict) -> ScenarioBundle:
    sim = _keys(config.get("simulate", {}), ("n_runs", "horizon", "boundary", "workers"),
                "simulate")
    spec = spec_from_config(config.get("distribution") or _missing("distribution"))
    region = region_from_config(config.get("region") or _missing("region"))
    schedule = schedule_from_config(config.get("schedule") or _missing("schedule"))
    if region.dim != spec.dim:
        raise ConfigError("region and distribution dimensions disagree")
    return ScenarioBundle(
        name=config.get("name", "scenario"),
        spec=spec, region=region, schedule=schedule,
        n_runs=_real(sim.get("n_runs", 100_000), "simulate.n_runs", int, 1),
        horizon=_real(sim.get("horizon", 1_000_000), "simulate.horizon", int, 1),
        boundary=_choice(sim.get("boundary", "closed"), ("closed", "strict"), "boundary"),
    )


def _missing(key: str):
    raise ConfigError(f"config key {key!r} is required")


def _bound_tags(config: dict, brownian: bool) -> list:
    known = [t for t in ALL_TAGS if t.startswith("Brown") == brownian]
    return [_choice(t, known, "bound tag") for t in _list(config.get("bounds", []), "bounds")]


def _build_brownian_bundle(config: dict) -> BrownianBundle:
    br = _keys(config["brownian"], ("drift", "diffusion"), "brownian")
    sim = _keys(config.get("simulate", {}), ("n_runs", "dt", "horizon", "workers"), "simulate")
    region = region_from_config(config.get("region") or _missing("region"))
    drift = _reals(br.get("drift"), "brownian.drift")
    diffusion = _reals(br.get("diffusion", 0.0), "brownian.diffusion")
    if len(np.atleast_1d(drift)) != region.dim or len(np.atleast_1d(diffusion)) not in (
            1, region.dim):
        raise ConfigError("region, drift and diffusion dimensions disagree")
    if not all(math.isfinite(s * s) for s in np.atleast_1d(diffusion).tolist()):
        raise ConfigError(f"brownian.diffusion squared must be finite, got {diffusion!r}")
    return BrownianBundle(
        config.get("name", "scenario"), region, drift=drift, diffusion=diffusion,
        dt=_real(sim.get("dt", 0.01), "simulate.dt", minimum=1e-9),
        n_runs=_real(sim.get("n_runs", 50_000), "simulate.n_runs", int, 1),
        horizon=_real(sim.get("horizon", 10_000.0), "simulate.horizon", minimum=1e-9),
    )


def _bound_reports(config: dict):
    if "brownian" in config:
        bundle = _build_brownian_bundle(config)
        return bundle, [brownian_report(tag, bundle) for tag in _bound_tags(config, True)]
    bundle = _build_discrete_bundle(config)
    return bundle, [bound_report(tag, bundle) for tag in _bound_tags(config, False)]


def _rows(config: dict, seed: int, results) -> list:
    """Report rows from bound reports or certification rows."""
    fixed = {"scenario": config.get("name", "scenario"), "config_hash": config_hash(config),
             "seed": seed}
    return [dict(fixed, **{c: getattr(r, c, "") for c in CSV_COLUMNS[1:8]}) for r in results]


def cmd_bound(config: dict, seed: int, out: str, fmt: str) -> int:
    write_report(_rows(config, seed, _bound_reports(config)[1]), CSV_COLUMNS, out, fmt)
    return 0


def _first_look_within(schedule, horizon: int, what: str) -> None:
    """Refuse a simulation horizon below the schedule's first look: no walk could be sampled."""
    first = schedule.element(1)
    if first > horizon:
        raise ConfigError(f"{what} {horizon} lies below the schedule's first look {first}")


def _simulate_bundle(bundle, config: dict, seed: int, overshoot_level=None):
    _real(bundle.n_runs, "simulate.n_runs", int, 2)  # one run has no stderr for the 4-sigma slack
    sim = _object(config.get("simulate", {}), "simulate")
    workers = _real(sim.get("workers", 1), "simulate.workers", int, 1)
    if isinstance(bundle, BrownianBundle):
        return run_brownian(bundle.region, bundle.drift, bundle.diffusion,
                            bundle.dt, bundle.n_runs, bundle.horizon, seed,
                            workers=workers)
    _first_look_within(bundle.schedule, bundle.horizon, "simulate.horizon")
    return run_discrete(bundle.region, bundle.spec, bundle.schedule,
                        bundle.n_runs, bundle.horizon, seed,
                        boundary=bundle.boundary, workers=workers,
                        overshoot_level=overshoot_level)


def cmd_certify(config: dict, seed: int, out: str, fmt: str) -> int:
    bundle, reports = _bound_reports(config)
    for manual in _list(config.get("manual_bounds", []), "manual_bounds"):
        manual = _object(manual, "manual bound")
        reports.append(BoundReport(
            manual.get("theorem", "manual"),
            _choice(manual.get("direction"), ("upper", "lower"), "manual bound direction"),
            _real(manual.get("value"), "manual bound value")))
    level = None
    if not isinstance(bundle, BrownianBundle):
        level = bundle.premises.threshold_level if any(
            r.theorem.startswith("Lorden-") for r in reports) else None
    try:
        estimate = _simulate_bundle(bundle, config, seed, overshoot_level=level)
    except AllTruncatedError as exc:
        print(f"certify: {exc}", file=sys.stderr)
        return 3
    cert_rows = certify(reports, estimate)
    write_report(_rows(config, seed, cert_rows), CSV_COLUMNS, out, fmt)
    failures = [r for r in cert_rows if r.verdict == "fail"]
    for r in failures:
        print(f"certify: FAIL {config.get('name', 'scenario')}/{r.theorem} value={r.value:.6g} "
              f"mc={r.mc_mean:.6g}+-{r.mc_stderr:.3g}", file=sys.stderr)
    return 1 if failures else 0


_VALIDATOR_GFUNS = {  # each maps (n, d) points to n values
    "square": lambda z: np.sum(z**2, axis=1),
    "abs": lambda z: np.sum(np.abs(z), axis=1),
    "neg-square": lambda z: -np.sum(z**2, axis=1),
    "identity": lambda z: z[:, 0],
}

_CONVEX_MEAN_CASES = {
    "unit-square": {
        "halfspaces": [([1.0, 0.0], 1.0), ([-1.0, 0.0], 0.0),
                       ([0.0, 1.0], 1.0), ([0.0, -1.0], 0.0)],
        "box": ([0.0, 0.0], [1.0, 1.0]),
    },
    "triangle": {
        "halfspaces": [([-1.0, 0.0], 0.0), ([0.0, -1.0], 0.0), ([1.0, 1.0], 1.0)],
        "box": ([0.0, 0.0], [1.0, 1.0]),
    },
}


def _gfun(name):
    return _VALIDATOR_GFUNS[_choice(name, tuple(_VALIDATOR_GFUNS), "gfun")]


def _convex_mean_validator(item: dict, seed: int):
    case = _choice(item.get("case", "unit-square"),
                   ("two-point", "random-polytope", *_CONVEX_MEAN_CASES), "convex-mean case")
    samples = _real(item.get("samples", 10_000), "samples", int, 1)
    if case == "two-point":
        halfspaces = _CONVEX_MEAN_CASES["triangle"]["halfspaces"]
        verts = np.array([[1.0, 0.0], [0.0, 1.0]])
        return validate_convex_mean(halfspaces, lambda rng, n: verts[rng.integers(0, 2, n)],
                                    samples, seed)
    if case == "random-polytope":
        rng = np.random.default_rng(_real(item.get("case_seed", 42), "case_seed", int, 0))
        normals = rng.normal(size=(5, 2))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        halfspaces = [(normals[i].tolist(), 0.8) for i in range(5)]
        sampler = box_rejection_sampler(halfspaces, [-1.0, -1.0], [1.0, 1.0])
        return validate_convex_mean(halfspaces, sampler, samples, seed)
    data = _CONVEX_MEAN_CASES[case]
    sampler = box_rejection_sampler(data["halfspaces"], *data["box"])
    return validate_convex_mean(data["halfspaces"], sampler, samples, seed)


def _identity_scenario(item: dict, which: str):
    spec = spec_from_config(item.get("distribution") or _missing("distribution"))
    if which == "jensen-T3":
        y_cfg = item.get("y_distribution")
        return {"gfun": _gfun(item.get("gfun", "square")), "z_spec": spec,
                "y_spec": mm.point_mass(1.0) if y_cfg is None else spec_from_config(y_cfg)}
    scenario = {"spec": spec,
                "region": region_from_config(item.get("region") or _missing("region")),
                "schedule": schedule_from_config(item.get("schedule") or _missing("schedule")),
                "horizon": _real(item.get("horizon", 1_000_000), "horizon", int, 1),
                "boundary": _choice(item.get("boundary", "closed"), ("closed", "strict"),
                                    "boundary")}
    if scenario["region"].dim != spec.dim:
        raise ConfigError("region and distribution dimensions disagree")
    _first_look_within(scenario["schedule"], scenario["horizon"], "horizon")
    if "gfun" in item:
        scenario["gfun"] = _gfun(item["gfun"])
    if "p" in item:
        _real(item["p"], "p", minimum=1)
        scenario["p"] = item["p"]
    if which.startswith("lorden"):
        scenario["lam"] = _real(item.get("lam"), "lam")
    return scenario


def cmd_validate(config: dict, seed: int, out: str, fmt: str) -> int:
    rows = []
    for item in _list(config.get("validators", []), "validators"):
        which = _object(item, "validator entry").get("which")
        if which is None:
            raise ConfigError("validator entries need the key 'which'")
        if which == "convex-mean":
            result = _convex_mean_validator(item, seed)
            margin = min(result.margins.values()) if result.margins else math.nan
        elif which == "perspective":
            result = validate_perspective(_gfun(item.get("gfun", "square")),
                                          _real(item.get("trials", 10_000), "trials", int, 1),
                                          seed, dim=_real(item.get("dim", 1), "dim", int, 1))
            margin = result.margins.get("worst_gap", math.nan)
        elif which in ("jensen-T3", "wald-T4-I", "wald-T4-II", "lp-norm",
                       "lorden-T6", "lorden-T7"):
            result = validate_identity(which, _identity_scenario(item, which),
                                       _real(item.get("runs", 20_000), "runs", int, 2), seed)
            margin = result.margins.get("mean_gap", result.margins.get("mc_overshoot", math.nan))
        else:
            raise ConfigError(f"unknown validator tag {which!r}")
        rows.append({"theorem": result.name, "direction": "check", "value": margin,
                     "applicable": True, "verdict": "pass" if result.passed else "fail"})
    fixed = {"scenario": config.get("name", "validation"), "config_hash": config_hash(config),
             "seed": seed}
    write_report([dict(fixed, **row) for row in rows], CSV_COLUMNS, out, fmt)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call rather than at import."""
    parser = argparse.ArgumentParser(
        prog="stopbounds",
        description="Bounds on expected stopping times, certified by Monte Carlo")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("bound", "compute theorem bounds from a config"),
                            ("certify", "compute bounds and certify them against simulation"),
                            ("validate", "run the foundational-inequality validators")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the experiment JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--runs", type=int, default=None, help="override simulate.n_runs")
        p.add_argument("--out", default=None, help="report path (default: <config>.report.<fmt>)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _keys(load_config(args.config), _CONFIG_KEYS[args.command],
                       f"a {args.command} config")
        if args.runs is not None:
            sim = _object(config.get("simulate", {}), "simulate")
            config["simulate"] = dict(sim, n_runs=args.runs)
        seed = (_seed(args.seed, "--seed") if args.seed is not None
                else _seed(config.get("seed", 0), "seed"))
        out = args.out or str(Path(args.config).with_suffix(f".report.{args.format}"))
        if args.command == "bound":
            return cmd_bound(config, seed, out, args.format)
        if args.command == "certify":
            return cmd_certify(config, seed, out, args.format)
        return cmd_validate(config, seed, out, args.format)
    except ConfigError as exc:
        print(f"stopbounds: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
