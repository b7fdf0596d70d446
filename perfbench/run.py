"""stopbounds benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 24 --trace 0

Run from the repository root.  The package is imported from ``src/``; no
build or install step is needed.  The metric names and units are read from
``BENCHMARK.json``.  With ``--trace 0`` every pass runs with only the
public entry points timed and the end-to-end metrics are printed; with
``--trace 1`` untraced and traced passes alternate, the per-layer metrics
are printed and the spans are written to ``perfbench/out/``.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

import time

_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Ledger  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUPS = 3  # set-ups per run: this process plus SETUPS - 1 child processes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the set-up time and exit")
    return p.parse_args(argv)


def tail_percentile(values):
    """(q, value): highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    q = min(99, math.floor(100 * (n - 10) / n))
    ordered = sorted(values)
    return q, ordered[max(0, math.ceil(q / 100 * n) - 1)]


def child_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


class Pass:
    def __init__(self, wall, spans, figures):
        self.wall, self.spans, self.figures = wall, spans, figures


def end_to_end(plain, setups, ledger):
    # the first pass pays for lazy imports, first-call caches and heap
    # growth, so it is left out whenever a later pass fits the window
    plain = plain[1:] or plain
    reports = [s.dur for p in plain for s in p.spans if s.name == "bounds.report"]
    sims = [s for p in plain for s in p.spans if s.name.startswith("simulate.")]
    sim_time = sum(s.dur for s in sims)
    runs = sum(s.info["runs"] for s in sims if s.info)
    m = {
        "setup_s": (statistics.median(setups), f"n={len(setups)} set-ups"),
        "wall_s": (statistics.median(p.wall for p in plain), f"n={len(plain)} passes"),
        "runs_per_s": (runs / sim_time if sim_time else None,
                       f"{runs} runs in {sim_time:.3f} s of simulate calls"),
        "bounds_per_s": (len(reports) / sum(reports) if reports else None,
                         f"{len(reports)} reports in {sum(reports):.3f} s of report calls"),
        "bound_p50_ms": (statistics.median(reports) * 1e3 if reports else None,
                         f"n={len(reports)}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "ru_maxrss"),
        "fail_frac": (ledger.all_failed / ledger.all_attempted if ledger.all_attempted else None,
                      f"{ledger.all_failed} failed of {ledger.all_attempted} attempted, "
                      f"{ledger.all_failed - ledger.failed} of them known defects"),
    }
    tail = tail_percentile(reports)
    if tail:
        m["bound_p99_ms" if tail[0] == 99 else f"bound_p{tail[0]}_ms"] = (
            tail[1] * 1e3, f"n={len(reports)}")
    return m


def median_figures(plain):
    names = {name for p in plain for name in p.figures}
    return {name: statistics.median(p.figures[name] for p in plain if name in p.figures)
            for name in names}


def per_layer(plain, traced, figures, extras, ledger):
    m = tracing.layer_metrics([s for p in traced for s in p.spans], len(traced))
    m.update(figures)
    by_tag = {}
    for p in plain:
        for s in p.spans:
            if s.name == "bounds.report":
                by_tag.setdefault(s.info["tag"], []).append(s.dur)
    for tag, durs in by_tag.items():
        m[f"bounds.{tag}_ms"] = statistics.median(durs) * 1e3
    m.update(extras)
    if ledger.known_checks:
        m["overshoot.known_defect_frac"] = sum(ledger.known_missed.values()) / ledger.known_checks
    m["trace.wall_s"] = statistics.median(p.wall for p in traced)
    m["trace.overhead_frac"] = m["trace.wall_s"] / statistics.median(p.wall for p in plain) - 1.0
    return m


def measure(args, sb, workload, rec, ledger):
    """Closed-loop passes until the next one would overrun the window."""
    if args.trace:
        # an unrecorded first pass, so that lazy set-up and allocator growth
        # do not land on the untraced side of the overhead comparison
        workload.run_pass(rec, ledger)
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        trace_this = bool(args.trace) and len(traced) < len(plain)
        if trace_this:
            rec.start_tracing(sb)
        mark = len(rec.spans)
        start = time.perf_counter()
        try:
            figures = workload.run_pass(rec, ledger)
        finally:
            if trace_this:
                rec.stop_tracing()
        wall = time.perf_counter() - start
        (traced if trace_this else plain).append(Pass(wall, rec.spans[mark:], figures))
        enough = not args.trace or traced
        if enough and time.perf_counter() + wall > deadline:
            return plain, traced


def report(args, spec, ledger, e2e, layers):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, note) in e2e.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<14} {shown:>12}  ({note})")
    print(f"  output checks  {ledger.checks} run, {ledger.missed} missed")
    for what, count in sorted(ledger.failures.items()):
        print(f"  FAILED x{count}: {what}")
    print(f"  known-defect checks  {ledger.known_checks} run, "
          f"{sum(ledger.known_missed.values())} missed")
    for what, count in sorted(ledger.known_missed.items()):
        print(f"  KNOWN DEFECT x{count}: {what}")
    if args.trace:
        declared = spec["per_layer"]
        for item in declared:
            print(f"  {item['name']:<52} {layers.get(item['name'], 0.0):.6g} {item['unit']}")
        values = {i["name"]: layers.get(i["name"], 0.0) for i in declared}
    else:
        declared = spec["end_to_end"]
        values = {i["name"]: e2e[i["name"]][0] for i in declared}
    missing = [name for name, v in values.items() if v is None]
    if missing:
        raise RuntimeError(f"workload {args.workload} cannot report {missing}")
    metrics = {i["name"]: {"value": float(values[i["name"]]), "unit": i["unit"]}
               for i in declared}
    print(json.dumps({"correct": ledger.missed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stopbounds" / "__init__.py").is_file():
        print(f"run.py: no stopbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import stopbounds as sb
    import stopbounds.cli  # noqa: F401  (submodules the workloads and wrappers use)
    import stopbounds.overshoot  # noqa: F401
    import stopbounds.scenarios  # noqa: F401

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](sb, args.seed, args.tiny, workdir)
        setup = time.perf_counter() - _START
        if args.setup_only:
            print(repr(setup))
            return 0
        setups = [setup] + [child_setup(args) for _ in range(SETUPS - 1)]
        rec = tracing.Recorder()
        rec.install_boundary(sb)
        ledger = Ledger()
        plain, traced = measure(args, sb, workload, rec, ledger)
        layers = {}
        if args.trace:
            figures = median_figures(plain)
            extras = workload.trace_extras(rec, ledger, figures)
            layers = per_layer(plain, traced, figures, extras, ledger)
            tracing.write_spans([s for p in traced for s in p.spans],
                                OUT / f"spans-{args.workload}-seed{args.seed}.csv")
        report(args, spec, ledger, end_to_end(plain, setups, ledger), layers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
