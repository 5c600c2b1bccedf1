#!/usr/bin/env python3
"""CI perf gate for the serve tier's snapshot-pinned query index.

Usage: check_query_index.py BENCH_JSON MIN_SPEEDUP

From BENCH_serve_throughput.json's `serve.filtered` record, the gate
demands that a cold indexed engine's filtered-query p99 beats the
test-only naive reference (filtered database copy + render) by at least
MIN_SPEEDUP x, and that the bench's own payload cross-check (engine vs
reference, every query) passed. Payload equality across epochs and shard
layouts is a ctest property (QueryIndex.EpochReplayMatchesReference).
"""
import json
import sys


def main(bench_path: str, min_speedup: float) -> int:
    with open(bench_path) as f:
        record = json.load(f)
    split = record["serve"]["filtered"]
    if not split["payloads_identical"]:
        print("FAIL: bench payload cross-check: engine and reference produced different bytes")
        return 1
    speedup = split["indexed_speedup_p99"]
    print(
        f"filtered cold queries: reference p99 {split['reference']['p99_ns'] / 1000:.0f} us, "
        f"indexed p99 {split['indexed']['p99_ns'] / 1000:.0f} us "
        f"({speedup:.2f}x, p50 {split['indexed_speedup_p50']:.2f}x)"
    )
    if speedup < min_speedup:
        print(f"FAIL: indexed p99 speedup {speedup:.2f}x < required {min_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
