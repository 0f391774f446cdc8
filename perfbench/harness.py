"""Benchmark driver: timed runs, the traced run, result records.

One closed-loop client in one process runs a workload's operations in
order, repeatedly, for about ``--seconds``.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced repetitions and reports the per-layer metrics from the traced
ones.  The last line of standard output is one JSON object; logs go to
standard error and a full result record goes to ``results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import bvcontact
from bvcontact import cli

import spans as spans_mod
import workloads
from run import THREAD_VARS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
RESULTS = BENCH / "results"

SETUP_PROBES = 5

# a fresh interpreter that imports the library and builds one workload's inputs
SETUP_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import bvcontact, workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
"""

# children of minimize_energy that run once per solve, not once per iteration
SOLVER_SETUP = {"geometry.DomainGrid.__init__", "geometry.DomainGrid._build_boundary",
                "solver._ContactProx.__init__", "grid.energy_H",
                "grid.energy_capillarity"}

# per-layer metric -> the spans whose busy time, self time or calls it sums
BUSY = {
    "solver.dual_step_s": ("solver._dual_step_area", "solver._dual_step_tv"),
    "solver.grad_s": ("solver._grad",),
    "solver.adjoint_s": ("solver._grad_adjoint",),
    "solver.contact_prox_s": ("solver._ContactProx.apply",),
    "solver.prox_setup_s": ("solver._ContactProx.__init__",),
    "geometry.grid_build_s": ("geometry.DomainGrid.__init__",),
    "geometry.distance_maps_s": ("geometry.DomainGrid.distance_maps",),
    "geometry.boundary_s": ("geometry.DomainGrid._build_boundary",),
    "density.yosida_eval_many_s": ("density.yosida_eval_many",),
    "density.lip_upper_approx_many_s": ("density.lip_upper_approx_many",),
    "grid.energy_F_s": ("grid.energy_F",),
    "grid.energy_H_s": ("grid.energy_H",),
    "grid.trace_extract_s": ("grid.trace_extract",),
    "extension.optimal_boundary_values_s": ("extension.optimal_boundary_values",),
    "relaxation.verify_representation_s": ("relaxation.verify_representation",),
    "relaxation.counterexample_energy_s": ("relaxation.counterexample_energy",),
    "cli.write_s": ("cli.write_csv", "grid.save_field"),
}
SELF = {
    # _scaled_energy's own _grad call is counted in solver.grad_s
    "solver.energy_record_s": "solver._scaled_energy",
    # without the distance maps and grid it asks for
    "extension.extend_boundary_data_s": "extension.extend_boundary_data",
    "cli.run_scenario_self_s": "cli.run_scenario",
}
COUNTS = {
    "geometry.grids_built": "geometry.DomainGrid.__init__",
    "density.bruteforce_calls": "density._brute_force_yosida",
}


@dataclass
class Rep:
    wall_s: float
    ops: list            # of workloads.OpResult
    fingerprints: list   # per op: the output that must repeat exactly


def run_op(op: workloads.Op, out_dir: Path):
    """Run, time and check one operation.  Any exception or failed check is
    recorded on the result; nothing propagates."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    res = workloads.OpResult(op.name, dict(op.sizes), 0.0, "ok")
    error = fingerprint = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            output = (cli.run_scenario(op.scenario, out_dir) if op.scenario is not None
                      else op.call())
        except Exception as e:
            error = e
        res.seconds = time.perf_counter() - start
    for w in caught:
        res.warnings[w.category.__name__] = res.warnings.get(w.category.__name__, 0) + 1
    res.bytes_written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    if error is not None:
        name = type(error).__name__
        res.outcome = "known_defect" if name == op.known_defect else "failed"
        res.messages.append(f"{name}: {error}")
        if res.outcome == "failed":
            log("".join(traceback.format_exception(error)))
        return res, None
    try:
        if op.scenario is not None:
            report = workloads.read_report(out_dir)
            res.messages += op.check(report, out_dir)
            if op.details is not None:
                res.details = op.details(report, out_dir)
            fingerprint = (out_dir / "report.json").read_text()
        else:
            res.messages += op.check(output)
            fingerprint = repr(output.get("integrals"))
    except Exception as e:
        log(traceback.format_exc())
        res.messages.append(f"check raised {type(e).__name__}: {e}")
    if res.messages:
        res.outcome = "failed"
    return res, fingerprint


def run_rep(ops, out_root: Path) -> Rep:
    results, prints = [], []
    for op in ops:
        res, fp = run_op(op, out_root / op.name)
        results.append(res)
        prints.append(fp)
        if res.outcome != "ok":
            log(f"  {op.name}: {res.outcome}: {'; '.join(res.messages)}")
    return Rep(sum(r.seconds for r in results), results, prints)


def check_repeats(reps):
    """Identical inputs must give identical outputs in every repetition."""
    first = reps[0].fingerprints
    for rep in reps[1:]:
        for res, fp, fp0 in zip(rep.ops, rep.fingerprints, first):
            if res.outcome == "ok" and fp0 is not None and fp != fp0:
                res.outcome = "failed"
                res.messages.append("output differs from the first repetition")
                log(f"  {res.name}: output differs from the first repetition")


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import bvcontact and build
    the workload's inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # no timeout: with one, the wait polls at up to 50 ms intervals
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"), str(BENCH),
                        workload, str(seed)], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_metrics(spans, rep: Rep) -> dict:
    """Per-layer metrics of one traced repetition: name -> (value, unit)."""
    summary = spans_mod.summarize(spans)

    def field(name, key):
        return summary.get(name, {}).get(key, 0)

    iters = sum(r.details.get("iterations", 0) for r in rep.ops)
    loop = field("solver.minimize_energy", "busy") - spans_mod.children_busy(
        spans, "solver.minimize_energy", SOLVER_SETUP)
    warned = sum(r.warnings.get("NonconvexBoundaryTerm", 0) for r in rep.ops)
    m = {
        "solver.iterations": (iters, "count"),
        "solver.iter_s": (loop / iters if iters else 0.0, "s"),
        "solver.nonconvex_warnings": (warned, "count"),
        "extension.layer_too_thin": (
            summary.get("extension.extend_boundary_data", {}).get("errors", {})
            .get("LayerTooThin", 0), "count"),
        "cli.bytes_written": (sum(r.bytes_written for r in rep.ops), "bytes"),
    }
    for name, sources in BUSY.items():
        m[name] = (sum(field(s, "busy") for s in sources), "s")
    for name, source in SELF.items():
        m[name] = (field(source, "self"), "s")
    for name, source in COUNTS.items():
        m[name] = (field(source, "calls"), "count")
    counted = set(COUNTS.values())
    for name in spans_mod.TARGETS:
        if name not in counted:
            m[f"{name}.calls"] = (field(name, "calls"), "count")
    m["trace.coverage_pct"] = (100.0 * spans_mod.root_coverage(spans) / rep.wall_s, "%")
    m["trace.spans"] = (len(spans), "count")
    return m


def layer_metric_names():
    """Every per-layer metric name and unit, in print order."""
    rep = Rep(1.0, [], [])
    names = {k: u for k, (_, u) in layer_metrics([], rep).items()}
    names["trace.wall_s"] = "s"
    names["trace.overhead_s"] = "s"
    return names


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed):
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bvcontact": bvcontact.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_pins": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "machine": platform.machine(),
    }


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def _median_metrics(per_rep):
    out = {}
    for name in per_rep[0]:
        vals = [m[name][0] for m in per_rep]
        out[name] = (statistics.median(vals), per_rep[0][name][1])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="repeat the workload for about this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ops = workloads.build(args.workload, args.seed)
    out_root = OUT / args.workload
    log(f"{args.workload} seed {args.seed}: {len(ops)} operations, "
        f"trace {args.trace}, {args.seconds:g} s")
    setup_s = measure_setup(args.workload, args.seed) if args.trace == 0 else None

    untraced, traced, traced_spans, per_rep_layers = [], [], [], []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        done = len(untraced) + len(traced)
        # stop once another repetition would likely end more than half of one
        # repetition past --seconds
        if (untraced and (not args.trace or traced)
                and elapsed + 0.5 * elapsed / done >= args.seconds):
            break
        if args.trace and len(traced) < len(untraced):
            with spans_mod.Tracer() as tracer:
                rep = run_rep(ops, out_root)
            traced.append(rep)
            traced_spans.append(tracer.spans)
            per_rep_layers.append(layer_metrics(tracer.spans, rep))
            log(f"  traced rep {len(traced)}: {rep.wall_s:.3f} s, "
                f"{len(tracer.spans)} spans")
        else:
            rep = run_rep(ops, out_root)
            untraced.append(rep)
            log(f"  rep {len(untraced)}: {rep.wall_s:.3f} s")

    reps = untraced + traced
    check_repeats(reps)
    results = [r for rep in reps for r in rep.ops]
    attempted = len(results)
    failed = sum(r.outcome == "failed" for r in results)
    known = sum(r.outcome == "known_defect" for r in results)
    wall = statistics.median(r.wall_s for r in untraced)

    if args.trace:
        metrics = _median_metrics(per_rep_layers)
        traced_wall = statistics.median(r.wall_s for r in traced)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": (wall, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak, "MiB")}
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}

    quality = {"fail_share": (failed + known) / attempted}
    if args.workload == "contact-table":
        quality["energy_at_budget"] = untraced[0].ops[0].details.get("energy")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": environment(args.seed),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "quality": quality, "metrics": metrics,
        "known_defects": sorted({r.name for r in results if r.outcome == "known_defect"}),
        "rep_walls": [r.wall_s for r in untraced],
        "traced_rep_walls": [r.wall_s for r in traced],
        "ops": [asdict(r) for r in untraced[0].ops],
        "failures": [{"name": r.name, "outcome": r.outcome, "messages": r.messages}
                     for r in results if r.outcome != "ok"],
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced_spans:
        dump = [[[s.name, s.start, s.end, s.parent, s.error] for s in sp]
                for sp in traced_spans]
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(dump))
    log(f"{args.workload}: {len(untraced)} reps, median {wall:.3f} s, "
        f"{failed} failed, {known} known defects of {attempted}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
