"""One-sided regression gate for the engines bench's speedup ratios.

Usage: python3 engine_gate.py COMMITTED.json FRESH.json

Each MapReduce speedup is a ratio of two bench medians (baseline over
optimized). A ratio fails only when it drops: when the fresh ratio is
below the committed one by more than

    max(0.10, relIQR(baseline) + relIQR(optimized)),

where relIQR = iqr_ns / median_ns of a bench, taking the larger of the
committed and the fresh value. A ratio that rises never fails.
"""
import json
import sys

FLOOR = 0.10


def load(path):
    report = json.load(open(path))
    benches = {(b["engine"], b["workload"], b["config"]): b for b in report["benches"]}
    ratios = {(s["engine"], s["workload"], s["baseline"], s["optimized"]): s["ratio"]
              for s in report["speedups"]
              if s["engine"] == "mapreduce" and s["workload"] in ("sort", "wordcount")}
    return benches, ratios


def rel_iqr(bench):
    return bench["iqr_ns"] / bench["median_ns"]


def main(committed_path, fresh_path):
    committed, want = load(committed_path)
    fresh, got = load(fresh_path)
    assert want.keys() == got.keys(), (want, got)
    failures = []
    for key, before in sorted(want.items()):
        engine, workload, baseline, optimized = key
        noise = sum(max(rel_iqr(committed[(engine, workload, config)]),
                        rel_iqr(fresh[(engine, workload, config)]))
                    for config in (baseline, optimized))
        threshold = max(FLOOR, noise)
        after = got[key]
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
