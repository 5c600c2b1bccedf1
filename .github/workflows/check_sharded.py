#!/usr/bin/env python3
"""Gate for the sharded snapshot-store layout (ctest cli.serve_sharded_equality).

Usage: check_sharded.py SINGLE_RESPONSES SHARDED_RESPONSES

Two serve processes answered the same scripted smoke batch (queries,
cache-warming repeats, malformed requests, and the raw-document ingestion
tail whose version bumps force post-ingest recomputation), one with
`--shards 1` (the single-store oracle), one with `--shards 4`. The gate
demands:

  * the two response streams are byte-identical, line for line — the
    sharded layout is a pure reorganization: same payloads, same version
    vectors, same error envelopes, including after the ingests that land
    on different shards,
  * the streams are non-trivial: filtered (maker-routed) queries, ingest
    envelopes and post-ingest repeats are all present.

Parallel commits on distinct shards and cross-shard cache survival are
ctest properties (ShardedStore.CommitsOnDistinctShardsDoNotSerialize,
ShardedCache.WarmEntrySurvivesOtherShardIngest).
"""
import json
import sys


def main(single_path: str, sharded_path: str) -> int:
    with open(single_path) as f:
        single = [line for line in f.read().splitlines() if line.strip()]
    with open(sharded_path) as f:
        sharded = [line for line in f.read().splitlines() if line.strip()]

    if len(single) != len(sharded):
        print(f"FAIL: {len(single)} single-store responses vs {len(sharded)} sharded")
        return 1
    if not single:
        print("FAIL: empty response streams")
        return 1
    for i, (a, b) in enumerate(zip(single, sharded)):
        if a != b:
            print(f"FAIL: line {i}: layouts disagree\n  single:  {a}\n  sharded: {b}")
            return 1

    maker_routed = ingests = post_ingest_queries = 0
    for line in single:
        response = json.loads(line)
        if "ingest" in response or (response.get("ok") is False and "version" in response):
            ingests += 1
        elif response.get("ok") is True:
            if ingests:
                post_ingest_queries += 1
            if "maker=" in response.get("query", ""):
                maker_routed += 1
    if maker_routed < 1:
        print("FAIL: the batch exercised no maker-filtered query (routing unproven)")
        return 1
    if ingests < 1 or post_ingest_queries < 1:
        print(
            "FAIL: the batch exercised no post-ingest query "
            "(cross-layout equivalence across epochs unproven)"
        )
        return 1

    print(
        f"{len(single)} responses byte-identical across layouts "
        f"({maker_routed} maker-routed queries, {ingests} ingest envelopes, "
        f"{post_ingest_queries} post-ingest queries)"
    )
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
