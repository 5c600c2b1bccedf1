#!/usr/bin/env python3
"""Build the CI serve smoke batch (requests for `avtk serve --input`).

Usage: make_serve_batch.py CORPUS_DIR INJECT_MANIFEST OUT_BATCH

Emits the scripted query batch — every query kind including the
reliability pair mcf/nhpp, filtered slices along every index axis
(maker, year, maker+year, tag, category, tag+category), cache-warming
repeats, and malformed requests (one a structurally valid nhpp with an
out-of-range horizon) — followed by the raw-document ingestion tail:

  * ingest a clean disengagement report from CORPUS_DIR — must be
    accepted, bump the database version, and invalidate dependent
    cache entries,
  * repeat "metrics", "nhpp" and a tag-filtered "tags" — recomputed at
    the new version (the filtered repeat runs against the new epoch's
    freshly built query index),
  * ingest the first corrupted document from the inject manifest —
    must be rejected with the manifest's probe code, leaving the
    version and the cache untouched,
  * repeat the same three — must be served from the still-warm cache.

Request ids are assigned by position (the serve loop echoes them back in
order). CORPUS_DIR is the `avtk inject --out` layout (scanned/doc_NNN.txt
with pristine/ twins); the manifest is the avtk.inject.v1 report naming
the corrupted indices. check_serve.py verifies the responses against the
same manifest; check_sharded.py byte-compares two shard layouts'
answers to this batch.
"""
import json
import os
import sys

QUERIES = [
    # Every kind, bare.
    {"query": "metrics"},
    {"query": "tags"},
    {"query": "categories"},
    {"query": "modality"},
    {"query": "trend"},
    {"query": "fit"},
    {"query": "compare"},
    {"query": "mcf"},
    {"query": "nhpp"},
    # Filtered slices along every query-index axis.
    {"query": "metrics", "maker": "waymo"},
    {"query": "tags", "maker": "waymo"},
    {"query": "fit", "min_samples": 10},
    {"query": "trend", "maker": "delphi"},
    {"query": "categories", "maker": "delphi"},
    {"query": "mcf", "maker": "waymo", "replicates": 150, "seed": 7},
    {"query": "nhpp", "horizon_miles": 50000},
    {"query": "metrics", "maker": "waymo", "year": 2016},
    {"query": "tags", "year": 2016},
    {"query": "tags", "tag": "planner"},
    {"query": "categories", "category": "ml_design"},
    {"query": "modality", "tag": "planner", "category": "ml_design"},
    # Cache-warming repeats.
    {"query": "metrics"},
    {"query": "tags"},
    {"query": "compare"},
    {"query": "mcf"},
    {"query": "nhpp"},
    {"query": "tags", "tag": "planner"},
    # Deliberately malformed: rejected on the wire, never fatal. The last
    # one is structurally valid nhpp with an out-of-range horizon — it must
    # answer a structured parse-error envelope naming the field.
    {"query": "warp_drive"},
    {"query": "metrics", "maker": "martian_motors"},
    {"query": "fit", "min_samples": 0},
    {"query": "nhpp", "horizon_miles": -1},
]

# Queries repeated around each ingest: an accepted ingest must force
# recomputation at the new version, a rejected one must leave them warm.
POST_INGEST_REPEATS = [
    {"query": "metrics"},
    {"query": "nhpp"},
    {"query": "tags", "tag": "planner"},
]


def read_doc(corpus_dir: str, sub: str, index: int) -> str:
    with open(os.path.join(corpus_dir, sub, f"doc_{index:03d}.txt")) as f:
        return f.read()


def main(corpus_dir: str, manifest_path: str, out_path: str) -> int:
    with open(manifest_path) as f:
        manifest = json.load(f)
    faults = manifest["faults"]
    if not faults:
        print("FAIL: inject manifest lists no corrupted documents")
        return 1
    corrupted = {f["index"] for f in faults}

    # Clean ingest: the first untouched disengagement report. The first
    # line of a generated report is its title.
    clean_index = None
    for i in range(manifest["documents_in"]):
        if i in corrupted:
            continue
        text = read_doc(corpus_dir, "scanned", i)
        if "Disengagement Report" in text.splitlines()[0]:
            clean_index = i
            break
    if clean_index is None:
        print("FAIL: no clean disengagement report in the corpus")
        return 1

    def ingest_request(index: int, title: str) -> dict:
        return {
            "ingest": {
                "text": read_doc(corpus_dir, "scanned", index),
                "title": title,
                "pristine": read_doc(corpus_dir, "pristine", index),
            }
        }

    clean_title = read_doc(corpus_dir, "scanned", clean_index).splitlines()[0]
    corrupt = faults[0]
    batch = (
        [dict(q) for q in QUERIES]
        + [ingest_request(clean_index, clean_title)]
        + [dict(q) for q in POST_INGEST_REPEATS]
        + [ingest_request(corrupt["index"], corrupt["title"])]
        + [dict(q) for q in POST_INGEST_REPEATS]
    )
    for rid, request in enumerate(batch):
        request["id"] = rid

    with open(out_path, "w") as f:
        f.write("# CI serve smoke batch (queries + raw-document ingestion)\n")
        for request in batch:
            f.write(json.dumps(request) + "\n")
    print(
        f"{len(batch)} requests written to {out_path} "
        f"(clean ingest doc {clean_index}, corrupted ingest doc {corrupt['index']} "
        f"expecting code {corrupt['code']!r})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3]))
