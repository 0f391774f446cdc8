#!/usr/bin/env python3
"""Diff two sets of benchmark results, metric by metric, one row per workload.

    python3 perfbench/compare.py perfbench/baseline.json perfbench/results

Each side is a result record written by run.py, a directory of them, or a
file holding ``{"runs": [record, ...]}`` such as baseline.json.  Records of
the same workload and trace mode are reduced to the median of each metric.
A cell reads ``old -> new (change)``; an end-to-end metric that got worse
by more than its bound in BENCHMARK.json is marked ``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS_PER_TABLE = 4


def load_records(path: Path) -> list[dict]:
    if path.is_dir():
        files = sorted(p for p in path.glob("*.json") if not p.name.endswith("-spans.json"))
        return [r for p in files for r in load_records(p)]
    data = json.loads(path.read_text())
    return data["runs"] if "runs" in data else [data]


def reduce(records: list[dict]) -> dict:
    """(workload, trace) -> metric -> (median value, unit); the quality
    figures (fail share, energy at budget) ride along as metrics."""
    groups = {}
    for rec in records:
        values = groups.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["metrics"].items():
            values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
        for name, v in rec.get("quality", {}).items():
            values.setdefault(name, ([], "1"))[0].append(v)
    return {key: {name: (statistics.median(vals), unit)
                  for name, (vals, unit) in metrics.items()}
            for key, metrics in groups.items()}


def bounds() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def cell(old, new, spec) -> str:
    if old is None or new is None:
        return f"{_num(old)} -> {_num(new)}"
    change = f"{(new - old) / abs(old):+.1%}" if old else f"{new - old:+.4g}"
    text = f"{_num(old)} -> {_num(new)} ({change})"
    if spec and old:
        worse = (new - old) / abs(old)
        if spec["better"] == "higher":
            worse = -worse
        if worse > spec["bound"]:
            text += " WORSE"
    return text


def _num(v):
    return "-" if v is None else f"{v:.4g}"


def render(a: dict, b: dict, spec: dict) -> list[str]:
    lines = []
    for trace in sorted({k[1] for k in a} | {k[1] for k in b}):
        workloads = sorted({k[0] for k in (*a, *b) if k[1] == trace})
        units = {}
        for src in (a, b):
            for w in workloads:
                for name, (_, unit) in src.get((w, trace), {}).items():
                    units.setdefault(name, unit)
        names = list(units)
        title = "per-layer (traced run)" if trace else "end-to-end"
        for i in range(0, len(names), COLUMNS_PER_TABLE):
            chunk = names[i:i + COLUMNS_PER_TABLE]
            rows = [["workload"] + [f"{n} [{units[n]}]" for n in chunk]]
            for w in workloads:
                old, new = a.get((w, trace), {}), b.get((w, trace), {})
                rows.append([w] + [cell(old.get(n, (None,))[0], new.get(n, (None,))[0],
                                        None if trace else spec.get(n))
                                   for n in chunk])
            widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
            lines.append(f"{title}:")
            for r in rows:
                lines.append("  " + "  ".join(c.ljust(wd) for c, wd in zip(r, widths)))
            lines.append("")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    a, b = reduce(load_records(args.old)), reduce(load_records(args.new))
    print("\n".join(render(a, b, bounds())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
