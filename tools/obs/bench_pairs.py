#!/usr/bin/env python3
"""Runs the end-to-end benchmark in alternating parent/change pairs and
judges every end-to-end metric by the repository's rules. Stdlib only.

    python3 tools/obs/bench_pairs.py --parent ../parent --change . \\
        --workload tpcc-crash --pairs 10 --seed 931
    python3 tools/obs/bench_pairs.py --self-test

Both directories are checkouts of the repository. The benchmark command,
its run length and the end-to-end metrics come from the parent's
BENCHMARK.json, so both sides run exactly what the parent's benchmark
runs. Pair i uses seed S+i on both sides; even pairs run the parent first,
odd pairs the change. Each run's JSON line is echoed to stderr as it
finishes, after the run's own stderr. A run that fails its correctness gate
(non-zero exit, or "correct": false) stops the series with exit code 1, and
its stdout and stderr are kept in bench_pairs-<side>-<workload>-seed<N>.log
in the current directory, whose path the error names.

For each metric the summary gives both medians with their quartiles, the
change's wins, ties and losses judged by the metric's `better`, whether
the gain rule holds (wins in at least 9/10 of the pairs, and a median gap
in the better direction larger than the parent's interquartile range),
and whether the change's median stays within the metric's bound of the
parent's. Failed and attempted operation totals close the report.

Each run also reports the host's steal time: the share of all CPU time,
read from the `cpu` line of /proc/stat before and after the run, that a
hypervisor gave to other guests. It is printed on the run's stderr line,
and each side's median closes the summary ("n/a" where /proc/stat cannot
be read). A series whose steal share moves between sides or pairs can
read as a regression or a gain the code did not cause; no verdict
depends on it.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile

GAIN_WIN_SHARE = 0.9


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def parse_result(stdout):
    """Returns the driver's closing JSON object from a run's stdout."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line in the run's output")


def check_run(returncode, stdout):
    """(result, error): error names why a finished run does not count."""
    try:
        result = parse_result(stdout)
    except ValueError as e:
        return None, "%s (exit %d)" % (e, returncode)
    if returncode != 0 or not result.get("correct", False):
        return result, "correctness gate failed (exit %d)" % returncode
    return result, None


def parse_cpu_line(line):
    """The aggregate `cpu` line's first eight counters (user, nice, system,
    idle, iowait, irq, softirq, steal), or None for any other line. Guest
    time is left out: the kernel already counts it in user and nice."""
    fields = line.split()
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    try:
        return [int(v) for v in fields[1:9]]
    except ValueError:
        return None


def read_cpu_times(path="/proc/stat"):
    """parse_cpu_line of `path`'s `cpu` line, or None if it cannot be read."""
    try:
        with open(path, encoding="ascii") as f:
            for line in f:
                times = parse_cpu_line(line)
                if times is not None:
                    return times
    except (OSError, UnicodeDecodeError):
        return None
    return None


def steal_share(before, after):
    """Steal time's share of all CPU time between two readings, or None."""
    if before is None or after is None:
        return None
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta)
    return delta[7] / total if total > 0 else None


def format_share(share):
    return "n/a" if share is None else "%.1f%%" % (100 * share)


def evidence_path(side, workload, seed, directory="."):
    """Where a failed run's output is kept."""
    return os.path.join(directory, "bench_pairs-%s-%s-seed%d.log"
                        % (side, workload, seed))


def keep_evidence(path, stdout, stderr):
    """Writes a failed run's stdout and stderr to `path`; returns `path`."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("=== stdout ===\n%s=== stderr ===\n%s" % (stdout, stderr))
    return path


def run_once(checkout, benchmark, side, workload, seed):
    """(result, error, steal share) of one benchmark run of `side`."""
    command = list(benchmark["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    before = read_cpu_times()
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, universal_newlines=True,
                          check=False)
    steal = steal_share(before, read_cpu_times())
    sys.stderr.write(proc.stderr)
    result, error = check_run(proc.returncode, proc.stdout)
    if error:
        error += "; its output is in " + keep_evidence(
            evidence_path(side, workload, seed), proc.stdout, proc.stderr)
    return result, error, steal


def quartiles(values):
    """(q1, median, q3), interpolating linearly between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(metric, parent, change):
    """Verdicts for one metric over paired values (parent[i], change[i])."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    ties = sum(1 for p, c in zip(parent, change) if c == p)
    losses = len(parent) - wins - ties
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = (wins >= GAIN_WIN_SHARE * len(parent) and
            sign * (c_med - p_med) > p_q3 - p_q1)
    worse_by = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    return {
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "wins": wins, "ties": ties, "losses": losses, "gain": gain,
        "worse_by": worse_by, "within_bound": worse_by <= metric["bound"],
    }


def median_share(results):
    """The median steal share of the runs that know theirs, or None."""
    known = [r["steal_share"] for r in results
             if r.get("steal_share") is not None]
    return statistics.median(known) if known else None


def report(benchmark, workload, runs, out):
    """Prints the summary of `runs`: a list of (parent, change) results."""
    out.write("workload %s, %d pair(s), %d s runs\n"
              % (workload, len(runs), benchmark["run_seconds"]))
    out.write("%-16s %-8s %-31s %-31s %-8s %-5s %s\n" % (
        "metric", "unit", "parent median [q1-q3]", "change median [q1-q3]",
        "w/t/l", "gain", "median vs bound"))
    verdicts = {}
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        parent = [p["metrics"][name]["value"] for p, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        v = judge(metric, parent, change)
        verdicts[name] = v
        out.write("%-16s %-8s %-31s %-31s %-8s %-5s %s\n" % (
            name, metric["unit"],
            "%.5g [%.5g-%.5g]" % (v["parent"][1], v["parent"][0],
                                  v["parent"][2]),
            "%.5g [%.5g-%.5g]" % (v["change"][1], v["change"][0],
                                  v["change"][2]),
            "%d/%d/%d" % (v["wins"], v["ties"], v["losses"]),
            "yes" if v["gain"] else "no",
            "%s %.0f%% (%.1f%% %s)" % (
                "within" if v["within_bound"] else "OUTSIDE",
                100 * metric["bound"], 100 * abs(v["worse_by"]),
                "worse" if v["worse_by"] > 0 else
                "better" if v["worse_by"] < 0 else "same")))
    for side, index in (("parent", 0), ("change", 1)):
        failed = sum(r[index]["failed"] for r in runs)
        attempted = sum(r[index]["attempted"] for r in runs)
        out.write("%s: %d failed of %d attempted operations\n"
                  % (side, failed, attempted))
    out.write("median steal share: parent %s, change %s\n" % (
        format_share(median_share([p for p, _ in runs])),
        format_share(median_share([c for _, c in runs]))))
    return verdicts


def run_pairs(args):
    benchmark = load_benchmark(args.parent)
    sides = {"parent": args.parent, "change": args.change}
    runs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            result, error, share = run_once(sides[side], benchmark, side,
                                            args.workload, seed)
            sys.stderr.write("pair %d seed %d %s (steal %s): %s\n" % (
                i + 1, seed, side, format_share(share),
                error or json.dumps(result["metrics"])))
            if error:
                if runs:
                    report(benchmark, args.workload, runs, sys.stdout)
                sys.stdout.write("STOPPED: %s side, seed %d: %s\n"
                                 % (side, seed, error))
                return 1
            result["steal_share"] = share
            pair[side] = result
        runs.append((pair["parent"], pair["change"]))
    report(benchmark, args.workload, runs, sys.stdout)
    return 0


# ------------------------------------------------------------- self-test

def canned(correct, failed, **values):
    metrics = {name: {"value": value, "unit": "-"}
               for name, value in values.items()}
    return json.dumps({"correct": correct, "attempted": 1000,
                       "failed": failed, "metrics": metrics})


def self_test():
    benchmark = {
        "run_seconds": 36,
        "end_to_end": [
            {"name": "cpu_us_per_txn", "unit": "us", "better": "lower",
             "bound": 0.25},
            {"name": "throughput_tps", "unit": "txn/s", "better": "higher",
             "bound": 0.05},
        ],
    }
    checks = []

    def check(condition, what):
        checks.append((bool(condition), what))

    # The result is the last JSON line, after the driver's text report.
    out = "perfbench workload=x\n  cpu_us_per_txn 900 us\n" + canned(
        True, 0, cpu_us_per_txn=900.0, throughput_tps=1200.0) + "\n"
    check(parse_result(out)["metrics"]["cpu_us_per_txn"]["value"] == 900.0,
          "parse the closing JSON line")
    check(check_run(0, out)[1] is None, "a correct run counts")
    check(check_run(0, "build output only\n")[1],
          "a run without a JSON line stops the series")
    check(check_run(1, canned(False, 1000, cpu_us_per_txn=0.0))[1],
          "a failed correctness gate stops the series")
    check(check_run(0, canned(False, 1000, cpu_us_per_txn=0.0))[1],
          "\"correct\": false stops the series even at exit 0")

    # Ten pairs: cpu drops ~16% and wins 10/10; throughput is flat, with
    # wins, ties and losses inside its 5% bound.
    parent_cpu = [1122, 1108, 1148, 1130, 1115, 1140, 1099, 1160, 1125, 1110]
    change_cpu = [943, 919, 982, 950, 930, 960, 925, 990, 940, 935]
    parent_tps = [1200, 1201, 1199, 1200, 1202, 1198, 1200, 1201, 1200, 1199]
    change_tps = [1200, 1200, 1199, 1201, 1201, 1199, 1200, 1200, 1201, 1199]
    runs = [(parse_result(canned(True, 0, cpu_us_per_txn=pc,
                                 throughput_tps=pt)),
             parse_result(canned(True, 0, cpu_us_per_txn=cc,
                                 throughput_tps=ct)))
            for pc, cc, pt, ct in zip(parent_cpu, change_cpu, parent_tps,
                                      change_tps)]
    text = io.StringIO()
    v = report(benchmark, "tpcc-crash", runs, text)
    cpu, tps = v["cpu_us_per_txn"], v["throughput_tps"]
    check((cpu["wins"], cpu["ties"], cpu["losses"]) == (10, 0, 0),
          "lower-is-better wins counted")
    check(cpu["gain"], "gain holds at 10/10 with a gap beyond the IQR")
    check(cpu["within_bound"] and cpu["worse_by"] < 0, "gain is in bound")
    check((tps["wins"], tps["ties"], tps["losses"]) == (3, 4, 3),
          "higher-is-better wins, ties and losses counted")
    check(not tps["gain"], "no gain claimed for a flat metric")
    check(tps["within_bound"], "flat metric stays in bound")
    check("0 failed of 10000 attempted" in text.getvalue(),
          "failed and attempted operations totalled")
    check(quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0),
          "quartiles interpolate between order statistics")
    check("median steal share: parent n/a, change n/a" in text.getvalue(),
          "unknown steal shares print n/a")
    for i, (parent, change) in enumerate(runs):
        parent["steal_share"] = 0.05 if i == 0 else 0.02
        change["steal_share"] = None if i == 0 else 0.187
    text = io.StringIO()
    check(report(benchmark, "tpcc-crash", runs, text) == v,
          "steal shares change no verdict")
    check("median steal share: parent 2.0%, change 18.7%" in text.getvalue(),
          "each side's median steal share, skipping unknown runs")

    # /proc/stat: only the aggregate line counts, guest time is already in
    # user and nice, and steal is the eighth counter.
    before = parse_cpu_line("cpu  100 5 50 800 10 1 2 30 7 0\n")
    after = parse_cpu_line("cpu  700 5 150 1000 10 1 2 130 77 0\n")
    check(before == [100, 5, 50, 800, 10, 1, 2, 30],
          "parse the cpu line's first eight counters")
    check(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8 9 10") is None and
          parse_cpu_line("intr 1 2 3") is None and
          parse_cpu_line("cpu  1 2 x 4 5 6 7 8") is None,
          "per-core, other and malformed lines are not the cpu line")
    check(abs(steal_share(before, after) - 0.1) < 1e-12,
          "steal share of the time between two readings")
    check(steal_share(None, after) is None and
          steal_share(before, before) is None,
          "no share without two readings or elapsed time")
    check(read_cpu_times(os.path.join(os.sep, "nonexistent", "stat")) is None,
          "an unreadable /proc/stat gives no reading")
    check(format_share(None) == "n/a" and format_share(0.187) == "18.7%",
          "steal shares print as percentages or n/a")

    # A failed run's output is kept in a file named by side, workload and
    # seed.
    path = evidence_path("change", "ycsb-open", 8407, "out")
    check(path == os.path.join("out", "bench_pairs-change-ycsb-open-"
                               "seed8407.log"),
          "evidence file named by side, workload and seed")
    with tempfile.TemporaryDirectory() as tmp:
        path = keep_evidence(evidence_path("parent", "tpcc-crash", 931, tmp),
                             "sub-run 3 diverged\n", "agreement failed\n")
        with open(path, encoding="utf-8") as f:
            kept = f.read()
    check(kept == "=== stdout ===\nsub-run 3 diverged\n"
                  "=== stderr ===\nagreement failed\n",
          "a failed run's stdout and stderr are both kept")

    # 8 of 10 wins is below the 9/10 rule even with a large median gap.
    mixed = list(change_cpu[:8]) + [1200, 1200]
    v = judge(benchmark["end_to_end"][0], parent_cpu, mixed)
    check(v["wins"] == 8 and not v["gain"], "8/10 wins is no gain")

    # 10/10 wins whose median gap is inside the parent's IQR is no gain.
    v = judge(benchmark["end_to_end"][0], parent_cpu,
              [p - 1 for p in parent_cpu])
    check(v["wins"] == 10 and not v["gain"], "gap inside the IQR is no gain")

    # A 30% cpu rise breaks the 25% bound; a 6% throughput drop breaks 5%.
    v = judge(benchmark["end_to_end"][0], parent_cpu,
              [p * 1.3 for p in parent_cpu])
    check(not v["within_bound"], "rise past the bound is flagged")
    v = judge(benchmark["end_to_end"][1], parent_tps,
              [p * 0.94 for p in parent_tps])
    check(not v["within_bound"], "drop past the bound is flagged")

    failed = 0
    for ok, what in checks:
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        failed += not ok
    print("%d of %d checks passed" % (len(checks) - failed, len(checks)))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--self-test", action="store_true",
                        help="check the judging logic on canned results")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.parent, args.change, args.workload, args.seed):
        parser.error("--parent, --change, --workload and --seed are required")
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
