"""qcong benchmark: time to an exact verdict for a seeded parameter grid.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh interpreter (rep.py), so
every sweep starts with cold caches as every `qcong` command does, until S
seconds are used. Every verdict is checked against perfbench/golden.json.
Prints each metric by name with its unit, a metadata line, and as the last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus trace.overhead_frac, the
traced sweep time over the untraced one, minus 1.

Exits with 2, printing no result, when the program cannot be set up
(for instance when src/qcong is absent), and with 1 when a repetition
crashed before any sweep completed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP = os.path.join(HERE, "rep.py")

sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402

# name -> unit, for the end-to-end metrics (see BENCHMARK.json)
END_TO_END = {
    "sweep_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pass_frac": "ratio",
}
SETUP_SAMPLES = 15  # set-up is cheap, so it is sampled more than sweeps
SETUP_RESERVE_S = 2.5  # run time kept back for the extra set-up samples
RUN_LIMIT_S = 170.0    # a run must end within 180 s


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "frac")):
        return "ratio"
    if name.endswith("degree_max"):
        return "degree"
    if name.endswith("bits_max"):
        return "bit"
    return "count"


def spawn(args: list[str], timeout: float):
    """Run one rep.py; returns (result dict or None, stderr text)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, REP, *args], cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the rep and any pool workers
        out, err = proc.communicate()
        return None, f"repetition timed out after {timeout:.0f} s\n{err}"
    if proc.returncode != 0 or not out.strip():
        return None, f"repetition exited with {proc.returncode}\n{err}"
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    result["wall_s"] = time.monotonic() - start
    return result, err


def source_digest() -> str:
    h = hashlib.sha256()
    base = os.path.join(ROOT, "src", "qcong")
    for name in sorted(os.listdir(base)):
        if name.endswith(".py"):
            with open(os.path.join(base, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None  # a plain checkout, not a repository


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    # Unmeasured first set-up: compiles bytecode and fails fast when the
    # sources or the golden entries for this seed are missing.
    first, err = spawn(base + ["--setup-only"], RUN_LIMIT_S)
    if first is None:
        sys.stderr.write(err)
        return 2
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    if args.workload == "cli_report":
        meta["report_jobs"] = wl.report_jobs(meta["nproc"])

    deadline = t_start + args.seconds - SETUP_RESERVE_S
    modes = ["plain", "traced"] if args.trace else ["plain"]
    done = {m: [] for m in modes}
    setups, problems = [], []
    attempted = failed = 0
    i = 0
    while True:
        mode = modes[i % len(modes)]
        walls = [r["wall_s"] for m in modes for r in done[m]]
        if all(done[m] for m in modes) and (
                time.monotonic() + statistics.median(walls) > deadline):
            break
        timeout = RUN_LIMIT_S - (time.monotonic() - t_start)
        res, err = spawn(base + (["--trace"] if mode == "traced" else []), timeout)
        i += 1
        if res is None:
            sys.stderr.write(err)
            attempted += first["attempted"]
            failed += first["attempted"]
            if not any(done.values()):
                return 1
            break
        done[mode].append(res)
        setups.append(res["setup_s"])
        attempted += res["attempted"]
        failed += res["failed"]
        problems += res["problems"]
    while len(setups) < SETUP_SAMPLES and (
            time.monotonic() - t_start < RUN_LIMIT_S - 10):
        res, err = spawn(base + ["--setup-only"], 30.0)
        if res is None:
            sys.stderr.write(err)
            break
        setups.append(res["setup_s"])
    meta["loadavg_end"] = os.getloadavg()

    plain = done["plain"]
    for p in problems[:10]:
        print(f"FAIL {p}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}:"
          f" {len(plain)} untraced and {len(done.get('traced', []))} traced"
          f" sweeps, {len(setups)} set-ups,"
          f" {time.monotonic() - t_start:.1f} s")
    print("meta " + json.dumps(meta))

    samples = {
        "sweep_s": [r["sweep_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    e2e = {k: statistics.median(v) for k, v in samples.items()}
    e2e["pass_frac"] = 1.0 - min(failed, attempted) / attempted
    for name, unit in END_TO_END.items():
        line = f"  {name:14s} {e2e[name]:12.4f} {unit:6s}"
        if name in samples:
            lo, hi = quartiles(samples[name])
            line += f" median of {len(samples[name])}, quartiles {lo:.4f}..{hi:.4f}"
        print(line)
    print(f"  {'fail_frac':14s} {1.0 - e2e['pass_frac']:12.4f} {'ratio':6s}"
          f" {failed} of {attempted} cells and commands failed")

    if args.trace:
        metrics = trace_metrics(done["traced"], e2e["sweep_s"])
        for name, value in metrics.items():
            print(f"  {name:44s} {value:14.4f} {layer_unit(name)}")
    else:
        metrics = e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END.get(k) or layer_unit(k)}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def trace_metrics(traced: list, untraced_sweep_s: float) -> dict:
    """Per-layer metrics: times are medians over the traced repetitions;
    counts come from the first and must repeat in the others."""
    first = traced[0]
    for other in traced[1:]:
        if other["raw"] != first["raw"]:
            print("warning: per-layer counts differ between traced"
                  " repetitions of one seed", file=sys.stderr)
    out = {}
    for name, value in first["trace"].items():
        if layer_unit(name) in ("s", "ms"):
            value = statistics.median(r["trace"][name] for r in traced)
        out[name] = value
    traced_sweep = statistics.median(r["sweep_s"] for r in traced)
    out["trace.overhead_frac"] = traced_sweep / untraced_sweep_s - 1.0
    return out


if __name__ == "__main__":
    sys.exit(main())
