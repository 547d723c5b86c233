#!/usr/bin/env python3
"""Compare a freshly produced BENCH_simulator.json against the committed baseline.

Three kinds of gates:
  1. Within-run speedup floors read from the fresh JSON's sections — every
     top-level object with both "speedup" and "floor" keys (dispatch, plan,
     transform, ...) is gated. These are machine-independent ratios — the
     hard gate. A section may opt out by recording "gated": false (e.g.
     parallel_dispatch on a host with too few cores to measure a speedup);
     its floor is then reported but not enforced. A section that the baseline
     had but the fresh run dropped is a failure too (a silently deleted gate
     is a regression).
  2. Per-row wall-time regression vs the committed baseline, with a generous
     multiplicative tolerance (CI runners differ from the machine that
     produced the committed numbers; the tolerance absorbs that, not real
     regressions). Schema v4 rows carry "sim_jobs" (shard count used for that
     row's simulation): a baseline/fresh sim_jobs mismatch on the same row is
     a hard failure — the two numbers measure different configurations, so
     comparing them would be meaningless; regenerate the committed baseline.
     That holds between hosts with the same core count. When the two files
     report different host "hardware_concurrency", a row with sim_jobs>1 on
     either side is reported as "skipped (core-count mismatch)" and left out
     of the wall-time gate: parallel wall time (and the shard count
     perf_core picks) is a property of core count, never silently compared
     across core counts.
  3. Row-set drift, reported by name in both directions: rows present only
     in the baseline ("MISSING") always fail — a renamed or deleted
     benchmark must update the committed baseline. Rows present only in the
     fresh run ("NEW") fail by default so a rename cannot slip through as
     delete+add; pass --allow-new-rows for PRs that intentionally add
     benchmarks ahead of regenerating the committed file.

Prints a per-row delta table (markdown) and appends it to the file named by
$GITHUB_STEP_SUMMARY when set, so the job summary shows the trajectory.

Usage:
  tools/bench_compare.py --baseline BENCH_simulator.json --fresh fresh.json \
      [--tolerance 3.0] [--allow-new-rows]

Exit code 0 when every gate passes, 1 otherwise. Stdlib only.
"""

import argparse
import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def rows_by_name(doc):
    # sim_jobs arrived with schema v4; v3 documents are all-serial.
    return {
        row["name"]: (row["ms"], int(row.get("sim_jobs", 1)))
        for row in doc.get("benchmarks", [])
    }


def host_concurrency(doc):
    """Host core count recorded by schema v4; None for older documents."""
    host = doc.get("host")
    if isinstance(host, dict) and "hardware_concurrency" in host:
        return int(host["hardware_concurrency"])
    return None


def floor_sections(doc):
    """Top-level sections carrying a within-run speedup gate."""
    return {
        name: section
        for name, section in doc.items()
        if isinstance(section, dict) and "floor" in section and "speedup" in section
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="committed BENCH_simulator.json")
    parser.add_argument("--fresh", required=True, help="freshly produced JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=3.0,
        help="fail a row when fresh_ms > baseline_ms * tolerance (default 3.0)",
    )
    parser.add_argument(
        "--min-gated-ms",
        type=float,
        default=5.0,
        help="rows with a committed baseline below this are reported but not "
        "gated — sub-millisecond best-of-N timings are too noisy on shared "
        "runners for a wall-time gate (default 5.0)",
    )
    parser.add_argument(
        "--allow-new-rows",
        action="store_true",
        help="accept rows present only in the fresh run (for PRs that add "
        "benchmarks before the committed baseline is regenerated)",
    )
    args = parser.parse_args()

    baseline = load(args.baseline)
    fresh = load(args.fresh)
    base_rows = rows_by_name(baseline)
    fresh_rows = rows_by_name(fresh)

    base_hw = host_concurrency(baseline)
    fresh_hw = host_concurrency(fresh)
    hw_mismatch = base_hw is not None and fresh_hw is not None and base_hw != fresh_hw

    failures = []
    lines = [
        "### perf_core: fresh vs committed baseline",
        "",
        f"tolerance: fresh ≤ {args.tolerance:.1f}× committed (runner variance allowance)",
    ]
    if hw_mismatch:
        warning = (
            f"WARNING: baseline was produced on a {base_hw}-thread host, fresh run "
            f"on a {fresh_hw}-thread host — wall-time gating for sim_jobs>1 rows "
            "is SKIPPED (parallel wall time is a property of core count)"
        )
        print(warning, file=sys.stderr)
        lines.append("")
        lines.append(f"**{warning}**")
    lines += [
        "",
        "| benchmark | committed (ms) | fresh (ms) | ratio | status |",
        "|---|---:|---:|---:|---|",
    ]
    new_rows = sorted(set(fresh_rows) - set(base_rows))
    missing_rows = sorted(set(base_rows) - set(fresh_rows))
    for name, (fresh_ms, fresh_jobs) in fresh_rows.items():
        base = base_rows.get(name)
        if base is None:
            status = "new row" if args.allow_new_rows else "**NEW (unexpected)**"
            lines.append(f"| {name} | — | {fresh_ms:.2f} | — | {status} |")
            continue
        base_ms, base_jobs = base
        ratio = fresh_ms / base_ms if base_ms > 0 else float("inf")
        status = "ok"
        if hw_mismatch and max(base_jobs, fresh_jobs) > 1:
            # Checked before the sim_jobs comparison: perf_core picks
            # sim_jobs from the core count, so across core counts the shard
            # counts differ by design.
            status = "skipped (core-count mismatch)"
        elif base_jobs != fresh_jobs:
            # Different shard counts time different configurations; never let
            # that slide through as an apples-to-apples wall-time comparison.
            status = "**SIM_JOBS MISMATCH**"
            failures.append(
                f"row '{name}': baseline measured sim_jobs={base_jobs}, fresh "
                f"measured sim_jobs={fresh_jobs} — regenerate the committed "
                "baseline so both runs time the same configuration"
            )
        elif base_ms < args.min_gated_ms:
            status = "ok (not gated)" if ratio <= args.tolerance else "slow (not gated)"
        elif ratio > args.tolerance:
            status = "**REGRESSION**"
            failures.append(
                f"row '{name}': {fresh_ms:.2f} ms vs committed {base_ms:.2f} ms "
                f"({ratio:.2f}x > {args.tolerance:.1f}x tolerance)"
            )
        lines.append(f"| {name} | {base_ms:.2f} | {fresh_ms:.2f} | {ratio:.2f}x | {status} |")
    for name in missing_rows:
        lines.append(f"| {name} | {base_rows[name][0]:.2f} | — | — | **MISSING** |")
    if missing_rows:
        failures.append(
            "rows present in the baseline but missing from the fresh run: "
            + ", ".join(f"'{name}'" for name in missing_rows)
        )
    if new_rows and not args.allow_new_rows:
        failures.append(
            "rows present only in the fresh run: "
            + ", ".join(f"'{name}'" for name in new_rows)
            + " (regenerate the committed baseline, or pass --allow-new-rows)"
        )

    lines.append("")
    lines.append("| floor | required | fresh | status |")
    lines.append("|---|---:|---:|---|")
    fresh_sections = floor_sections(fresh)
    for section in sorted(set(floor_sections(baseline)) - set(fresh_sections)):
        lines.append(f"| {section} speedup | — | — | **SECTION MISSING** |")
        failures.append(f"fresh JSON lacks the gated '{section}' section the baseline has")
    for section, sec in sorted(fresh_sections.items()):
        floor = float(sec.get("floor", 0.0))
        speedup = float(sec.get("speedup", 0.0))
        # Sections may self-gate ("gated": false when the producing host could
        # not meaningfully measure the ratio, e.g. parallel speedup on a
        # 1-core runner). The section must still exist — only the floor check
        # is conditional.
        if not sec.get("gated", True):
            lines.append(
                f"| {section} speedup | ≥ {floor:.1f}x | {speedup:.2f}x | "
                "not gated on this host |"
            )
            continue
        ok = speedup >= floor
        if not ok:
            failures.append(
                f"{section} speedup {speedup:.2f}x is below the {floor:.1f}x floor"
            )
        lines.append(
            f"| {section} speedup | ≥ {floor:.1f}x | {speedup:.2f}x | "
            f"{'ok' if ok else '**BELOW FLOOR**'} |"
        )

    report = "\n".join(lines) + "\n"
    print(report)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as f:
            f.write(report)

    if failures:
        print("bench_compare: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("bench_compare: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
