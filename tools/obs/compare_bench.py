#!/usr/bin/env python3
"""Diffs a fresh perf-baseline document against a checked-in one and
reports every metric drift, flagging regressions past a relative
tolerance. Stdlib only; the CI perf-smoke leg runs it warn-only (shared
runners are too noisy to gate on), and locally it answers "did my change
move the needle" in one line per metric:

    python3 tools/obs/compare_bench.py BENCH_wire.json bench_wire_new.json
    python3 tools/obs/compare_bench.py old.json new.json --tolerance=0.25
    python3 tools/obs/compare_bench.py old.json new.json --strict

Walks every numeric leaf under "result" present in both documents.
Direction matters: throughput-like metrics (frames_per_sec, *_tps,
mb_per_sec) regress when they DROP; cost-like metrics (latency,
syscalls-per-frame, backpressure) regress when they RISE. Metrics matching
neither family are reported but never flagged.

Only like hosts are compared: when the two documents' host.machine or
host.hardware_concurrency differ, the drift is printed but no regression
is flagged, because a wire or crypto rate from a 1-CPU host says nothing
about a 4-CPU one.

Exit code: always 0 unless --strict, then 1 when any regression exceeds
the tolerance (default 0.20 = 20% relative) between like hosts.
"""

import json
import sys

HIGHER_IS_BETTER = (
    "per_sec", "throughput_tps", "committed_txns",
)
LOWER_IS_BETTER = (
    "latency_ms", "syscalls_per_frame", "aborted",
    "backpressure", "wan_bytes_per_entry",
)
# The host fields that make two documents comparable.
HOST_KEYS = ("machine", "hardware_concurrency")


def numeric_leaves(node, prefix=""):
    """Yields (dotted-path, value) for every numeric leaf under node."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from numeric_leaves(node[key], prefix + key + ".")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield prefix[:-1] if prefix.endswith(".") else prefix, float(node)


def direction(path):
    leaf = path.rsplit(".", 1)[-1]
    if any(leaf.endswith(s) or s in leaf for s in HIGHER_IS_BETTER):
        return +1
    if any(leaf.endswith(s) or s in leaf for s in LOWER_IS_BETTER):
        return -1
    return 0


def load_doc(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    result = doc.get("result")
    if not isinstance(result, dict):
        raise ValueError("%s: no result object (run check_bench_schema.py)"
                         % path)
    return doc.get("bench", "?"), doc.get("host") or {}, result


def host_drift(base_host, cur_host):
    """Returns one "key old -> new" string per HOST_KEYS field that
    differs between the two documents' hosts."""
    return ["%s %s -> %s" % (key, base_host.get(key), cur_host.get(key))
            for key in HOST_KEYS if base_host.get(key) != cur_host.get(key)]


def main(argv):
    tolerance = 0.20
    strict = False
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
        elif arg == "--strict":
            strict = True
        else:
            paths.append(arg)
    if len(paths) != 2:
        print("usage: compare_bench.py BASELINE.json CURRENT.json "
              "[--tolerance=0.20] [--strict]")
        return 2

    try:
        base_name, base_host, base = load_doc(paths[0])
        cur_name, cur_host, cur = load_doc(paths[1])
    except (OSError, ValueError) as e:
        print("compare_bench: FAIL: %s" % e)
        return 2
    if base_name != cur_name:
        print("compare_bench: WARN: comparing bench %r against %r"
              % (cur_name, base_name))
    drift = host_drift(base_host, cur_host)
    if drift:
        print("compare_bench: WARN: unlike hosts (%s)" % ", ".join(drift))

    base_leaves = dict(numeric_leaves(base))
    cur_leaves = dict(numeric_leaves(cur))
    regressions = 0
    for path in sorted(base_leaves.keys() & cur_leaves.keys()):
        old, new = base_leaves[path], cur_leaves[path]
        if old == new == 0:
            continue
        # Relative change; a zero baseline with a nonzero current reads
        # as +/-inf, which only matters if the metric is directional.
        delta = (new - old) / abs(old) if old else float("inf")
        sign = direction(path)
        beyond = sign != 0 and sign * delta < -tolerance
        regressed = beyond and not drift
        marker = "REGRESSION" if regressed else "drift" if beyond else "ok"
        if regressed or sign != 0:
            print("compare_bench: %-10s %-45s %14.3f -> %14.3f  (%+.1f%%)"
                  % (marker, path, old, new, 100.0 * delta))
        regressions += regressed
    for path in sorted(base_leaves.keys() - cur_leaves.keys()):
        print("compare_bench: WARN: metric gone: %s" % path)

    if drift:
        print("compare_bench: no regression flagged: %s was measured on "
              "another kind of host, so it is no baseline for this one"
              % paths[0])
        return 0
    if regressions:
        print("compare_bench: %d metric(s) regressed beyond %.0f%% vs %s"
              % (regressions, 100.0 * tolerance, paths[0]))
        return 1 if strict else 0
    print("compare_bench: no regressions beyond %.0f%% vs %s"
          % (100.0 * tolerance, paths[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
