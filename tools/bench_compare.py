#!/usr/bin/env python3
"""Compares bench smoke results with the committed baseline.

    python3 tools/bench_compare.py --results DIR [--baseline BENCH_simperf.json]

Keys, baseline keys and bands come from tools/bench_compare.json. Each
table is appended as markdown to $GITHUB_STEP_SUMMARY (stdout when unset);
keys outside their band print GitHub annotations. Rules:
  min_ratio      value < band * baseline
  max_ratio      value > band * baseline
  max_rel_delta  |value - baseline| > band * baseline
  equal          any inequality; one warning per table lists them all
A "hard" row (or a missing key) is an ::error and exits 1; the rest warn.
"""
import argparse
import json
import os
import sys

VIOLATED = {
    "min_ratio": lambda v, b, band: b > 0 and v < band * b,
    "max_ratio": lambda v, b, band: b > 0 and v > band * b,
    "max_rel_delta": lambda v, b, band: abs(v - b) > band * b,
    "equal": lambda v, b, band: v != b,
}


def shown(value):
    if value is None:
        return "-"
    return str(int(value)) if float(value).is_integer() else str(value)


def compare(manifest, results_dir, baseline):
    """Returns (summary lines, annotation lines, exit status)."""
    summary, notes, status = [], [], 0
    for table in manifest["tables"]:
        with open(os.path.join(results_dir, table["result"])) as f:
            result = json.load(f)
        summary += [f"### {table['title']}", "",
                    "| metric | this run | committed baseline |", "|---|---|---|"]
        drift = []
        for row in table["rows"]:
            value, base = result.get(row["key"]), baseline.get(row.get("baseline"))
            summary.append(f"| {row['label']} | {shown(value)} | {shown(base)} |")
            if "rule" not in row:
                continue
            if value is None or base is None:
                notes.append(f"::error title=perf-smoke::{row['key']} or {row['baseline']} is missing")
                status = 1
            elif not VIOLATED[row["rule"]](value, base, row.get("band")):
                continue
            elif row["rule"] == "equal":
                drift.append(f"{row['key']} {shown(base)}->{shown(value)}")
            else:
                level = "error" if row.get("hard") else "warning"
                notes.append(f"::{level} title=perf-smoke::{row['label']} {shown(value)} is outside "
                             f"{row['rule']} {row['band']} of the committed {shown(base)} ({row['why']})")
                status = 1 if row.get("hard") else status
        if drift:
            notes.append(f"::warning title=perf-smoke::{table['title']} changed ({', '.join(drift)}) — "
                         f"virtual-time metrics are deterministic, so refresh {table['refresh']} "
                         "in BENCH_simperf.json if this is intentional")
        summary.append("")
    return summary, notes, status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", required=True, help="directory of bench_*.json results")
    parser.add_argument("--baseline", default="BENCH_simperf.json")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(__file__), "bench_compare.json")) as f, \
            open(args.baseline) as g:
        summary, notes, status = compare(json.load(f), args.results, json.load(g))
    text = "\n".join(summary) + "\n"
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if path:
        with open(path, "a") as out:
            out.write(text)
    else:
        sys.stdout.write(text)
    for note in notes:
        print(note)
    return status


if __name__ == "__main__":
    sys.exit(main())
