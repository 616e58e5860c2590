"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N [--trace] [--setup-only]

Sets up (imports qcong from the checkout's src/, generates the seeded
inputs, loads the golden table), then runs the sweep, then checks every
verdict and compute output against the golden table. Prints one JSON
line: the monotonic clock reading at the end of set-up ("ready"), sweep
wall time, CPU time of this process and its children during the sweep,
peak RSS, cells attempted and failed, and with --trace the per-layer
metrics. run.py starts one of these per repetition so that every sweep
begins with cold caches, as every `qcong` command does.

Exit codes: 0 after a sweep (whatever its verdicts), 3 when set-up fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
TMP = os.path.join(ROOT, ".perfbench_tmp")

sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402


class SetupError(Exception):
    pass


def import_qcong():
    if not os.path.isfile(os.path.join(SRC, "qcong", "__init__.py")):
        raise SetupError(f"no qcong sources under {SRC}")
    sys.path.insert(0, SRC)
    import qcong
    import qcong.cli  # noqa: F401  (every `qcong` command loads it; the tracer wraps it)

    if not os.path.abspath(qcong.__file__).startswith(SRC + os.sep):
        raise SetupError(f"qcong imported from {qcong.__file__}, not {SRC}")
    return qcong


def load_golden(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def make_plan(workload: str, seed: int, registry) -> dict:
    """What the sweep runs and which golden entries it must reproduce."""
    plan = {"verify": [], "report": None, "compute": [], "expected": []}
    if workload == "cli_report":
        jobs = wl.report_jobs(len(os.sched_getaffinity(0)))
        plan["report"] = ["report", "--statement", ",".join(wl.REPORT_TAGS),
                          "--format", "json", "--jobs", str(jobs)]
        plan["expected"] = wl.report_cells(registry)
        plan["compute"] = wl.compute_calls(seed)
        return plan
    if workload == "theorem_top":
        grids = wl.theorem_cells(seed)
    elif workload == "proof_chain":
        grids = wl.proof_cells(seed, registry)
    else:
        raise SetupError(f"unknown workload {workload!r}")
    for tag, grid in grids.items():
        variant = registry[tag].canonical_variant
        plan["verify"].append((tag, grid))
        plan["expected"].extend(wl.cell_key(tag, variant, p) for p in grid)
    return plan


def check_coverage(plan: dict, golden: dict):
    missing = [k for k in plan["expected"] if k not in golden["cells"]]
    missing += [wl.compute_key(a) for a in plan["compute"]
                if wl.compute_key(a) not in golden["compute"]]
    if missing:
        raise SetupError(f"golden table lacks {len(missing)} entries,"
                         f" e.g. {missing[0]!r}; rerun make_golden.py")


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def verdict_value(record: dict) -> list:
    """The part of a record the golden table pins: status and, per
    factor, d, required and margin (elapsed_ms is dropped)."""
    return [record["status"],
            [[int(f["d"]), int(f["required"]), str(f["margin"])]
             for f in record.get("factors", [])]]


def run_sweep(qcong, plan: dict, tmpdir: str, problems: list):
    """The timed part: only calls into qcong. Returns raw outputs."""
    out = {"records": [], "report_rc": None, "compute": []}
    for tag, grid in plan["verify"]:
        try:
            out["records"].extend(qcong.verify(tag, grid=grid))
        except Exception:
            problems.append(f"verify {tag} raised:\n{traceback.format_exc()}")
    if plan["report"] is None:
        return out
    cli = sys.modules["qcong.cli"]  # looked up now so a tracer's wrapper is used
    path = os.path.join(tmpdir, "report.json")
    try:
        out["report_rc"] = cli.main(plan["report"] + ["--output", path])
    except Exception:
        problems.append(f"report raised:\n{traceback.format_exc()}")
    for i, argv in enumerate(plan["compute"]):
        cpath = os.path.join(tmpdir, f"compute{i}.txt")
        try:
            rc = cli.main(argv + ["--format", "json", "--output", cpath])
        except Exception:
            problems.append(f"{' '.join(argv)} raised:\n{traceback.format_exc()}")
            rc = None
        out["compute"].append((argv, rc, cpath))
    return out


def check(plan: dict, out: dict, golden: dict, tmpdir: str, problems: list) -> int:
    """Number of failed items: cells whose verdict differs from the golden
    table or is missing, unexpected cells, and commands that raised or
    exited with another code than 0."""
    records = [r.to_dict() for r in out["records"]]
    failed = 0
    if plan["report"] is not None:
        if out["report_rc"] != 0:
            failed += 1
            problems.append(f"report exited with {out['report_rc']}, expected 0")
        try:
            with open(os.path.join(tmpdir, "report.json")) as fh:
                entries = json.load(fh)
            for entry in entries:
                for info in entry["variants"].values():
                    records.extend(info["records"])
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems.append(f"report output unreadable: {e!r}")
    expected = plan["expected"]
    want = set(expected)
    seen = set()
    for rec in records:
        key = wl.cell_key(rec["statement"], rec["variant"], rec["params"])
        if key not in want or key in seen:
            failed += 1
            problems.append(f"unexpected record {key}")
            continue
        seen.add(key)
        if verdict_value(rec) != golden["cells"][key]:
            failed += 1
            problems.append(f"{key}: got {verdict_value(rec)},"
                            f" golden {golden['cells'][key]}")
    missing = want - seen
    failed += len(missing)
    problems.extend(f"missing record {k}" for k in sorted(missing)[:5])
    for argv, rc, cpath in out["compute"]:
        key = wl.compute_key(argv)
        try:
            with open(cpath, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            digest = None
        if rc != 0 or digest != golden["compute"][key]:
            failed += 1
            problems.append(f"compute {key}: exit {rc}, output differs")
    return failed


def attempted_count(plan: dict) -> int:
    """Cells plus commands: the report itself and each compute call."""
    return (len(plan["expected"]) + len(plan["compute"])
            + (plan["report"] is not None))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--golden", default=GOLDEN)
    args = ap.parse_args(argv)

    try:
        qcong = import_qcong()
        plan = make_plan(args.workload, args.seed, qcong.REGISTRY)
        golden = load_golden(args.golden)
        check_coverage(plan, golden)
    except (SetupError, ImportError, OSError, ValueError) as e:
        print(f"perfbench set-up failed: {e}", file=sys.stderr)
        return 3
    ready = time.monotonic()
    result = {"ready": ready, "attempted": attempted_count(plan)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    tmpdir = os.path.join(TMP, f"rep-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    problems: list[str] = []
    try:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        out = run_sweep(qcong, plan, tmpdir, problems)
        sweep_s = time.perf_counter() - t0
        cpu_s = cpu_seconds() - cpu0
        peak_rss_mb = peak_rss_mib()
        result["failed"] = check(plan, out, golden, tmpdir, problems)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    result.update(
        sweep_s=sweep_s,
        cpu_s=cpu_s,
        peak_rss_mb=peak_rss_mb,
        problems=problems[:10],
        trace=tracer.metrics() if tracer else None,
        raw=tracer.raw() if tracer else None,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
