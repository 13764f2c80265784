"""Regenerate perfbench/reference/connected_le8.tsv.gz.

The file holds, for every connected graph with at most 8 vertices, its graph6
string, the longest-path length ell and the number of longest paths, as the
seed version of lplab computed them.  The correctness gate of the scan
workloads compares against it; any correct version of lplab must reproduce
these facts.  Run from the repository root:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import gzip
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "perfbench", "reference", "connected_le8.tsv.gz")


def main() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from lplab import graphs, harness, longest

    rows = []
    for n in range(1, 9):
        for g in harness.generate_connected_graphs(n):
            lps = longest.enumerate_longest_paths(g)
            if lps.truncated:
                raise SystemExit(f"path cap hit on {graphs.encode_graph6(g)}")
            rows.append(f"{graphs.encode_graph6(g)}\t{lps.length}\t{len(lps.paths)}\n")
    # mtime=0 keeps the file byte-identical across regenerations
    with open(REFERENCE, "wb") as raw, gzip.GzipFile(
        fileobj=raw, mode="wb", mtime=0
    ) as fh:
        fh.write("".join(rows).encode())
    print(f"wrote {len(rows)} graphs to {REFERENCE}")


if __name__ == "__main__":
    main()
