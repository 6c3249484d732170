#!/usr/bin/env python3
"""Kernel-bench trend check: fail CI on a cycles/s regression.

Compares the BENCH_kernel.json written by bench_perf against the
committed bench/baseline_kernel.json, per sample configuration, and
exits nonzero when the cycle-skipping kernel regressed by more than
the tolerance (default 20%, the ROADMAP's threshold).

CI runners and the machine that committed the baseline differ in raw
speed, so comparing absolute cycles/s across them would mostly
measure the hardware. Normalization cancels the machine out:

--normalize-by NAME divides every sample's cycles/s by the named
reference sample's cycles/s in the same file: all samples run in the
same process on the same machine, so the ratio isolates per-regime
code changes - but a regression in the reference sample itself can
then only warn. --normalize-by median avoids designating a
blind-spot sample: each sample's current/baseline ratio is judged
against the median ratio across all shared samples, so a regression
confined to any one regime (the former reference included) fails
while a uniformly slower runner cancels out. A change slowing every
sample equally is invisible to either ratio (there is no absolute
anchor on the runner), which is why absolute cycles/s are still
printed and checked - in a normalized mode an absolute-only
regression just warns.

Usage:
    check_bench_trend.py --baseline bench/baseline_kernel.json \
        --current BENCH_kernel.json [--tolerance 0.20] \
        [--normalize-by median | --normalize-by NAME] \
        [--json SUMMARY]

--json SUMMARY additionally writes a machine-readable summary of the
run to SUMMARY ('-' = stdout), so CI can annotate results without
scraping the human output. The exit code is unchanged by --json.

The summary schema is "sbn.bench_trend.v1" (one JSON object):

    type       "sbn.bench_trend.v1" - consumers must check this tag
               and reject unknown type values; schema changes bump it
    baseline   path of the --baseline file as given
    current    path of the --current file as given
    tolerance  the judged fractional tolerance
    normalized the --normalize-by value, or null
    rows       one object per judged (name, kernel) pair: name,
               kernel ("cycleskip"/"faststat"),
               baseline_cycles_per_s, current_cycles_per_s,
               abs_change, normalized_change or speedup_change,
               judged ("absolute"/"normalized"/"speedup"),
               verdict ("ok"/"abs-warn"/"REGRESSION"/"error"),
               pass (bool); "error" rows carry a reason instead of
               the numeric fields
    failures   flat list of human-readable failure messages
    warnings   flat list of human-readable warning messages
    pass       overall verdict (true iff failures is empty)

Samples that carry a "faststat" object in both files are additionally
judged on the FastStat kernel. The yardstick there needs no flag:
bench_perf runs both kernels interleaved in one process, so the
same-run speedup (faststat / cycleskip cycles/s) cancels the machine
exactly, and a speedup regression beyond the tolerance fails while an
absolute-only faststat slowdown warns. Cycleskip-only baselines keep
working unchanged.

Only sample names present in both files are judged on performance,
and every row present in only one file gets its own clear message: a
baselined sample missing from the current run fails (its coverage
silently vanished), a new unbaselined sample warns. Malformed rows
(no "name", duplicate names) are reported by file and row index, not
as a traceback. A current file with no overlapping samples is an
error.
"""

import argparse
import json
import sys


def load_samples(path, role):
    # A missing or unreadable file is an expected operational failure
    # (a fresh checkout without the committed baseline, a bench run
    # that never wrote its output), so it must exit with one clear
    # message naming the file and its role, never a traceback.
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        hint = ("commit or restore the baseline (it is a checked-in "
                "artifact)" if role == "baseline" else
                "run bench_perf with SBN_BENCH_KERNEL_JSON set to "
                "produce it")
        sys.exit(f"error: {role} file {path} does not exist - {hint}")
    except OSError as err:
        sys.exit(f"error: cannot read {role} file {path}: "
                 f"{err.strerror}")
    except json.JSONDecodeError as err:
        sys.exit(f"error: {role} file {path} is not valid JSON "
                 f"(line {err.lineno}: {err.msg})")
    if not isinstance(doc, dict):
        sys.exit(f"error: {role} file {path} is not a JSON object - "
                 "the bench output format changed")
    samples = doc.get("configs")
    if not isinstance(samples, list) or not samples:
        sys.exit(f"error: {path} carries no kernel-bench configs")
    by_name = {}
    for index, sample in enumerate(samples):
        # Validate per row so a malformed bench file names the row
        # instead of dying with a KeyError traceback.
        if not isinstance(sample, dict):
            sys.exit(f"error: {path} configs[{index}] is not an "
                     "object - the bench output format changed")
        name = sample.get("name")
        if not isinstance(name, str) or not name:
            sys.exit(f"error: {path} configs[{index}] has no "
                     "\"name\" string - the bench output format "
                     "changed")
        if name in by_name:
            sys.exit(f"error: {path} configs[{index}] duplicates "
                     f"sample name '{name}'")
        by_name[name] = sample
    return by_name


def cycles_per_s(sample, kernel):
    """cycles/s of one kernel's run, or None if the sample does not
    carry that kernel."""
    data = sample.get(kernel)
    if not isinstance(data, dict) or "cycles_per_s" not in data:
        return None
    return float(data["cycles_per_s"])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="fractional regression that fails "
                             "(default 0.20)")
    parser.add_argument("--normalize-by", metavar="SAMPLE",
                        help="judge cycles/s normalized by this "
                             "reference sample of the same run, or "
                             "'median' to judge each sample's "
                             "current/baseline ratio against the "
                             "median ratio over all samples "
                             "(machine-independent); absolute "
                             "regressions then only warn")
    parser.add_argument("--json", metavar="SUMMARY",
                        help="write a machine-readable per-row "
                             "pass/fail summary to this file "
                             "('-' = stdout)")
    args = parser.parse_args()

    baseline = load_samples(args.baseline, "baseline")
    current = load_samples(args.current, "current")
    shared = sorted(set(baseline) & set(current))
    if not shared:
        sys.exit("error: no sample names shared between "
                 f"{args.baseline} and {args.current}")
    # Rows present in only one file get a clear per-row message
    # rather than being silently dropped from the comparison: a
    # baselined sample the bench stopped emitting is a failure (the
    # coverage it provided is gone until the baseline is refreshed);
    # a new sample the baseline has not caught up with only warns.
    missing_failures = []
    for name in sorted(set(baseline) - set(current)):
        missing_failures.append(
            f"{name}: in baseline {args.baseline} but missing from "
            f"{args.current} - the bench no longer emits this "
            "sample; refresh the baseline if it was retired on "
            "purpose")
    new_row_warnings = []
    for name in sorted(set(current) - set(baseline)):
        new_row_warnings.append(
            f"{name}: in {args.current} but not baselined in "
            f"{args.baseline} - not judged; refresh the baseline to "
            "cover it")

    ref_base = ref_cur = None
    if args.normalize_by == "median":
        # Each sample is judged relative to its own file's median
        # cycles/s, so "speedup" prints as an O(1) regime ratio and a
        # regression confined to any one regime (a designated
        # reference sample included) moves that sample against the
        # median and fails.
        def file_median(samples):
            values = sorted(
                v for v in (cycles_per_s(samples[name], "cycleskip")
                            for name in shared)
                if v is not None)
            if not values:
                sys.exit("error: no cycleskip cycles/s to take a "
                         "median over")
            mid = len(values) // 2
            return (values[mid] if len(values) % 2 == 1
                    else (values[mid - 1] + values[mid]) / 2.0)
        ref_base = file_median(baseline)
        ref_cur = file_median(current)
    elif args.normalize_by:
        ref_base = (cycles_per_s(baseline[args.normalize_by], "cycleskip")
                    if args.normalize_by in baseline else None)
        ref_cur = (cycles_per_s(current[args.normalize_by], "cycleskip")
                   if args.normalize_by in current else None)
        if ref_base is None or ref_cur is None:
            sys.exit(f"error: reference sample '{args.normalize_by}' "
                     "with cycleskip cycles/s not present in both "
                     "files")

    failures = missing_failures
    warnings = new_row_warnings
    rows = []  # --json: one entry per judged (name, kernel) pair
    normalized_note = ""
    if args.normalize_by:
        normalized_note = f", normalized by {args.normalize_by}"
    print(f"kernel-bench trend vs {args.baseline} "
          f"(tolerance {args.tolerance:.0%}{normalized_note}):")
    for name in shared:
        base, cur = baseline[name], current[name]
        abs_base = cycles_per_s(base, "cycleskip")
        abs_cur = cycles_per_s(cur, "cycleskip")
        if abs_base is None or abs_cur is None:
            failures.append(
                f"{name}: no cycleskip cycles_per_s in one of the "
                "files - the bench output format changed")
            rows.append({"name": name, "kernel": "cycleskip",
                         "verdict": "error",
                         "reason": "no cycleskip cycles_per_s"})
            continue
        abs_change = abs_cur / abs_base - 1.0

        norm_change = None
        speedups = ""
        if args.normalize_by:
            norm_base = abs_base / ref_base
            norm_cur = abs_cur / ref_cur
            norm_change = norm_cur / norm_base - 1.0
            speedups = (f"   speedup {norm_base:5.2f}x -> "
                        f"{norm_cur:5.2f}x ({norm_change:+7.1%})")

        judge_normalized = norm_change is not None
        judged_change = norm_change if judge_normalized else abs_change
        verdict = "ok"
        if judged_change < -args.tolerance:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: "
                f"{'speedup' if judge_normalized else 'cycles/s'}"
                f" regressed {-judged_change:.1%}"
                f" (beyond {args.tolerance:.0%})")
        elif judge_normalized and abs_change < -args.tolerance:
            verdict = "abs-warn"
            warnings.append(
                f"{name}: absolute cycles/s down {-abs_change:.1%} "
                "but speedup held - likely a slower runner")

        print(f"  {name:24s} cycles/s {abs_base:12.0f} -> "
              f"{abs_cur:12.0f} ({abs_change:+7.1%}){speedups}"
              f"   {verdict}")
        rows.append({"name": name, "kernel": "cycleskip",
                     "baseline_cycles_per_s": abs_base,
                     "current_cycles_per_s": abs_cur,
                     "abs_change": abs_change,
                     "normalized_change": norm_change,
                     "judged": ("normalized" if judge_normalized
                                else "absolute"),
                     "verdict": verdict,
                     "pass": verdict != "REGRESSION"})

    # FastStat rows, judged only where both files carry them. The
    # same-run cycleskip kernel is the yardstick: bench_perf measures
    # both kernels interleaved in one process, so the speedup ratio
    # cancels the machine without needing any --normalize-by flag.
    fs_shared = [
        name for name in shared
        if cycles_per_s(baseline[name], "faststat") is not None
        and cycles_per_s(current[name], "faststat") is not None
    ]
    if fs_shared:
        print("faststat trend (judged on the same-run speedup "
              "over cycleskip):")
    for name in fs_shared:
        fs_base = cycles_per_s(baseline[name], "faststat")
        fs_cur = cycles_per_s(current[name], "faststat")
        cs_base = cycles_per_s(baseline[name], "cycleskip")
        cs_cur = cycles_per_s(current[name], "cycleskip")
        if cs_base is None or cs_cur is None:
            failures.append(
                f"{name}: faststat present without cycleskip - the "
                "bench output format changed")
            rows.append({"name": name, "kernel": "faststat",
                         "verdict": "error",
                         "reason": "faststat present without "
                                   "cycleskip"})
            continue
        abs_change = fs_cur / fs_base - 1.0
        speedup_base = fs_base / cs_base
        speedup_cur = fs_cur / cs_cur
        speedup_change = speedup_cur / speedup_base - 1.0

        verdict = "ok"
        if speedup_change < -args.tolerance:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: faststat speedup regressed "
                f"{-speedup_change:.1%} (beyond {args.tolerance:.0%})")
        elif abs_change < -args.tolerance:
            verdict = "abs-warn"
            warnings.append(
                f"{name}: absolute faststat cycles/s down "
                f"{-abs_change:.1%} but its speedup held - likely a "
                "slower runner")

        print(f"  {name:24s} cycles/s {fs_base:12.0f} -> "
              f"{fs_cur:12.0f} ({abs_change:+7.1%})"
              f"   speedup {speedup_base:5.2f}x -> "
              f"{speedup_cur:5.2f}x ({speedup_change:+7.1%})"
              f"   {verdict}")
        rows.append({"name": name, "kernel": "faststat",
                     "baseline_cycles_per_s": fs_base,
                     "current_cycles_per_s": fs_cur,
                     "abs_change": abs_change,
                     "speedup_change": speedup_change,
                     "judged": "speedup",
                     "verdict": verdict,
                     "pass": verdict != "REGRESSION"})

    for message in warnings:
        print(f"warning: {message}")
    if failures:
        for message in failures:
            print(f"FAIL: {message}")

    if args.json:
        summary = {
            "type": "sbn.bench_trend.v1",
            "baseline": args.baseline,
            "current": args.current,
            "tolerance": args.tolerance,
            "normalized": args.normalize_by,
            "rows": rows,
            "failures": failures,
            "warnings": warnings,
            "pass": not failures,
        }
        text = json.dumps(summary, indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(text)
        else:
            with open(args.json, "w") as handle:
                handle.write(text)

    if failures:
        return 1
    print(f"trend check passed over {len(shared)} sample(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
