"""Record the golden verdict table that the benchmark checks against.

    python3 perfbench/make_golden.py            # writes perfbench/golden.json

Runs, once and serially, every cell any seed can draw: t1 and t2 at every
alpha of the theorem_top pool, every step_*/lemma_* default grid, and
every record `qcong report` prints for the cli_report statements, including
the as_printed variants that must fail. Each cell keeps its status and, per
cyclotomic factor, d, required and margin; elapsed_ms is dropped. Every
compute command in the cli_report pools is stored as the SHA-256 of its
output. Before writing, it checks that each canonical variant holds
everywhere and that the report and compute commands exit with 0.

Takes about a minute and a half on a 2-core x86-64 host.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from collections import Counter

import rep
import workloads as wl


def main() -> int:
    qcong = rep.import_qcong()
    cli = sys.modules["qcong.cli"]
    registry = qcong.REGISTRY
    cells = {}

    def add(record: dict):
        key = wl.cell_key(record["statement"], record["variant"], record["params"])
        value = rep.verdict_value(record)
        if cells.setdefault(key, value) != value:
            raise SystemExit(f"{key}: two runs disagree")

    for tag, grid in wl.theorem_pool().items():
        for r in qcong.verify(tag, grid=grid):
            add(r.to_dict())
    for tag in wl.proof_tags(registry):
        for r in qcong.verify(tag):
            add(r.to_dict())

    tmpdir = os.path.join(rep.TMP, "golden")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        path = os.path.join(tmpdir, "out.txt")
        rc = cli.main(["report", "--statement", ",".join(wl.REPORT_TAGS),
                       "--format", "json", "--jobs", "1", "--output", path])
        if rc != 0:
            raise SystemExit(f"report exited with {rc}")
        with open(path) as fh:
            for entry in json.load(fh):
                for info in entry["variants"].values():
                    for record in info["records"]:
                        add(record)
        compute = {}
        for argv in wl.compute_pool():
            rc = cli.main(argv + ["--format", "json", "--output", path])
            if rc != 0:
                raise SystemExit(f"{' '.join(argv)} exited with {rc}")
            with open(path, "rb") as fh:
                compute[wl.compute_key(argv)] = hashlib.sha256(fh.read()).hexdigest()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    missing = [k for k in wl.report_cells(registry) if k not in cells]
    if missing:
        raise SystemExit(f"report did not print {missing[:3]}")
    tally = Counter()
    for key, (status, _) in cells.items():
        tag, variant, _ = key.split("|")
        tally[tag, variant, status] += 1
        if variant == registry[tag].canonical_variant and status != "holds":
            raise SystemExit(f"canonical cell {key} is {status}")
    for (tag, variant, status), count in sorted(tally.items()):
        print(f"{tag:14s} {variant:26s} {status:10s} {count:4d}")

    lines = ['{"cells": {']
    lines += [f"{json.dumps(k)}: {json.dumps(v)}," for k, v in sorted(cells.items())]
    lines[-1] = lines[-1].rstrip(",")
    lines.append('}, "compute": {')
    lines += [f"{json.dumps(k)}: {json.dumps(v)}," for k, v in sorted(compute.items())]
    lines[-1] = lines[-1].rstrip(",")
    lines.append("}}")
    with open(rep.GOLDEN, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(cells)} cells, {len(compute)} compute outputs -> {rep.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
