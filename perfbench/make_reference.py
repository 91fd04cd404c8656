"""Write perfbench/reference.json: the output digests the workloads check.

Usage: PYTHONPATH=src python3 perfbench/make_reference.py

Run it only when a workload's definition changes, never to make a failing
check pass: the digests pin what the program computed when the workload was
defined, and every later pass must reproduce them.
"""

from __future__ import annotations

import json
import os

import workloads
from superimm import verify


def main() -> None:
    symbolic = {label: workloads.digest(thunk()) for label, thunk in workloads.symbolic_calls()}
    points = {}
    for (m, n), seeds in workloads.point_seeds(workloads.DEFAULT_SEED).items():
        for i, s in enumerate(seeds):
            eigen, _ = workloads.points_op(m, n, verify.random_grassmann_point(m, n, s), [])
            points[f"point({m}|{n}) #{i}"] = workloads.eigenvalue_digest(eigen)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"symbolic": symbolic, "points": points}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
