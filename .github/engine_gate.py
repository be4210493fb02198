"""One-sided regression gate for the engines bench's speedup ratios.

Usage: python3 engine_gate.py COMMITTED.json FRESH.json

The bench times each MapReduce workload's reference data path
(`btree_seq`) and the engine's (`sortmerge_seq`) in alternating rounds,
and records each round's ratio (baseline over optimized) and the median
and IQR of those ratios. A workload fails only when its median ratio
drops: when the fresh median is below the committed one by more than

    max(0.10, relIQR),

where relIQR = ratio_iqr / ratio of the paired ratios, taking the
larger of the committed and the fresh value. A ratio that rises never
fails.
"""
import json
import sys

FLOOR = 0.10
SCHEMA = "ipso-bench-engines/v2"


def load(path):
    report = json.load(open(path))
    assert report["schema"] == SCHEMA, (path, report["schema"])
    return {(s["engine"], s["workload"], s["baseline"], s["optimized"]): s
            for s in report["speedups"]}


def rel_iqr(speedup):
    return speedup["ratio_iqr"] / speedup["ratio"]


def main(committed_path, fresh_path):
    want = load(committed_path)
    got = load(fresh_path)
    assert want.keys() == got.keys(), (want.keys(), got.keys())
    failures = []
    for key in sorted(want):
        _, workload, baseline, optimized = key
        before, after = want[key]["ratio"], got[key]["ratio"]
        threshold = max(FLOOR, rel_iqr(want[key]), rel_iqr(got[key]))
        drop = (before - after) / before
        verdict = "FAIL" if drop > threshold else "ok"
        print(f"{verdict:4} {workload} {baseline}->{optimized}: {before:.3f} -> {after:.3f} "
              f"({-drop:+.1%}; allowed drop {threshold:.1%})")
        if drop > threshold:
            failures.append(key)
    if failures:
        sys.exit(f"speedup ratios dropped beyond their noise: {failures}")


if __name__ == "__main__":
    main(*sys.argv[1:])
