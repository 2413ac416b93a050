"""Write ``reference.json``: result count and digest of each query, in dataset ids.

Run from the repository root on the commit whose answers are the reference:

    python3 fairbench/record_reference.py

It runs each distinct query once, with the local pipeline, on the dataset
graph as generated (no relabelling).
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, Input, digest, generate, run_pass  # noqa: E402


def main() -> None:
    ref = {}
    for w in WORKLOADS.values():
        if w.spark:
            continue
        g = generate(w)
        # Dataset ids are 0..n-1, so the sorted ids map every id to itself.
        ids_u, ids_v = sorted(g.adj_u), sorted(g.adj_v)
        results, _ = run_pass(w, Input(g, ids_u, ids_v))
        n, sha = digest(results, ids_u, ids_v)
        ref[w.reference_key] = {"count": n, "sha256": sha}
        print(w.reference_key, n, sha, file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
