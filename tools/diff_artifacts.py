#!/usr/bin/env python3
"""Fail when two builds compiled different artifacts.

Reads two `reqisc-compile --json --emit-circuit` documents, written by
two builds (SIMD on and off, GCC and Clang, one build at two
--block-workers counts) over the same inputs and flags, and compares
each circuit's artifact fields: name, circuit, finalPermutation,
count2Q, depth2Q, duration and distinctSU4. Every job must be ok in
both, and the documents must list the same circuits in the same
order. Timings, cache counters and pass traces are not artifacts and
are ignored.

Usage: diff_artifacts.py A.json B.json
Exits 0 when the artifacts match, 1 naming the first difference.
"""

import json
import sys

FIELDS = ("name", "circuit", "finalPermutation", "count2Q", "depth2Q",
          "duration", "distinctSU4")


def artifacts(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    out = []
    for c in doc["circuits"]:
        if not c.get("ok"):
            sys.exit(f"{path}: job {c.get('name')!r} failed: "
                     f"{c.get('error')}")
        out.append({k: c[k] for k in FIELDS})
    return out


def main(argv):
    if len(argv) != 3:
        sys.exit("usage: diff_artifacts.py A.json B.json")
    a, b = artifacts(argv[1]), artifacts(argv[2])
    if len(a) != len(b):
        print(f"{argv[1]} has {len(a)} circuits, {argv[2]} {len(b)}")
        return 1
    for ca, cb in zip(a, b):
        for k in FIELDS:
            if ca[k] != cb[k]:
                print(f"circuit {ca['name']!r}: {k} differs between "
                      f"{argv[1]} and {argv[2]}")
                return 1
    print(f"{len(a)} artifacts match: {argv[1]} == {argv[2]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
