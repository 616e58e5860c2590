"""Command-line front end: verification sweeps, exact objects, reports.

Exit codes: 0 when every checked cell holds, 1 when any cell fails or is
ill posed, 2 for usage or configuration errors (including parameter
ranges that leave no cell satisfying a statement's hypotheses).

Range syntax for parameter flags: comma-separated items, each either an
integer or an inclusive span "a..b", optionally filtered "a..b:odd" or
"a..b:even"; a bare "odd"/"even" filters the statement's default values.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import re
import sys
from functools import lru_cache

from .cyclotomic import cyclotomic
from .euler import euler_numbers
from .lehmer import lehmer_euler_numbers
from .qcombinatorics import q_binomial
from .statements import REGISTRY, HypothesisViolation, m_star, verify

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

PARAM_FLAGS = ("n", "alpha", "p", "k", "r", "m", "t")
_PARAM_OPTS = {f"--{name}" for name in PARAM_FLAGS}

_RANGE_ITEM = re.compile(r"(-?\d+)\.\.(-?\d+)(?::(odd|even))?$")


class UsageError(Exception):
    pass


def parse_range(text: str):
    """-> (values or None, parity or None); raises UsageError."""
    values = []
    parity = None
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise UsageError(f"empty item in range {text!r}")
        if item in ("odd", "even"):
            parity = item
            continue
        m = _RANGE_ITEM.match(item)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
            if lo > hi:
                raise UsageError(f"empty span {item!r}")
            vals = range(lo, hi + 1)
            if m.group(3):
                keep = 1 if m.group(3) == "odd" else 0
                vals = [v for v in vals if v % 2 == keep]
            values.extend(vals)
            continue
        try:
            values.append(int(item))
        except ValueError:
            raise UsageError(f"cannot parse range item {item!r}") from None
    return (sorted(set(values)) or None), parity


def build_grid(stmt, overrides):
    """Parameter cells for a statement under CLI overrides.

    With no overrides this is exactly the statement's default grid. With
    overrides, the grid is the cross product of the overridden values and
    the projected defaults of the remaining parameters, filtered through
    the statement's hypotheses (so e.g. an even n never reaches an
    odd-n statement). May return an empty list; callers treat that as a
    usage error.
    """
    if not overrides:
        return stmt.default_grid()
    defaults = stmt.default_grid()
    names = stmt.params
    axes = []
    for name in names:
        vals, parity = overrides.get(name, (None, None))
        if vals is None:
            vals = sorted({cell[name] for cell in defaults})
        if parity is not None:
            keep = 1 if parity == "odd" else 0
            vals = [v for v in vals if v % 2 == keep]
        axes.append(vals)
    cells = []
    for combo in itertools.product(*axes):
        params = dict(zip(names, combo))
        try:
            stmt.hypotheses(params)
        except HypothesisViolation:
            continue
        cells.append(params)
    return cells


def resolve_variant(stmt, requested):
    if requested in (None, "canonical"):
        return stmt.canonical_variant
    if requested in stmt.variants:
        return requested
    if requested == "corrected" and stmt.canonical_variant != "as_printed":
        return stmt.canonical_variant
    raise UsageError(
        f"{stmt.tag} has no variant {requested!r}"
        f" (available: {', '.join(stmt.variants)})"
    )


def select_statements(selector: str):
    if selector == "all":
        return list(REGISTRY.values())
    out = []
    # a repeated tag runs once, at its first position
    for tag in dict.fromkeys(t.strip() for t in selector.split(",")):
        if tag not in REGISTRY:
            raise UsageError(f"unknown statement {tag!r}")
        out.append(REGISTRY[tag])
    return out


def collect_overrides(args):
    overrides = {}
    for name in PARAM_FLAGS:
        raw = getattr(args, name)
        if raw is not None:
            overrides[name] = parse_range(raw)
    return overrides


# ---------------------------------------------------------------------------
# output helpers: each format is an iterable of text pieces

def _write_out(pieces, path):
    """Write the pieces as they come, then a newline unless they end in one."""
    fh = sys.stdout if path is None else open(path, "w")
    try:
        last = ""
        for last in pieces:
            fh.write(last)
        fh.write("" if last.endswith("\n") else "\n")
        fh.flush()
    except BrokenPipeError:
        if path is not None:
            raise
        # the reader quit: the rest, and the flush at exit, go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, fh.fileno())
        finally:
            os.close(devnull)
    finally:
        if path is not None:
            fh.close()


def _joined(pieces, sep=""):
    """The nonempty pieces joined by sep, one string per 4096 of them."""
    pieces = iter(pieces)
    batches = iter(lambda: sep.join(itertools.islice(pieces, 4096)), "")
    return itertools.chain(itertools.islice(batches, 1),
                           map(sep.__add__, batches))


# JSON text as json.dumps(obj, indent=2) writes it, each value built whole
# with str.join. With indent set, the stdlib runs its pure-Python encoder,
# one generator per value; this calls only what that encoder calls on the
# leaves: the C string escape and int.__repr__.
_escape = json.encoder.encode_basestring_ascii


def _value(x, pad):
    """x as json.dumps(x, indent=2) writes it, nested at indent pad;
    every dict key must be a str."""
    t = type(x)
    if t is str:
        return _escape(x)
    if t is int:
        return int.__repr__(x)
    inner = pad + "  "
    if t is dict and x:
        body = ",\n".join([f"{inner}{_escape(k)}: {_value(v, inner)}"
                           for k, v in x.items()])
        return f"{{\n{body}\n{pad}}}"
    if t is list and x:
        body = ",\n".join([inner + _value(v, inner) for v in x])
        return f"[\n{body}\n{pad}]"
    if isinstance(x, dict):
        return _value(dict(x), pad) if x else "{}"
    if isinstance(x, (list, tuple)):
        return _value(list(x), pad) if x else "[]"
    # true, false, null, a float, a str or int subclass; else TypeError
    return json.dumps(x)


def _json(obj):
    """json.dumps(obj, indent=2) in pieces: a top-level list's items are
    joined in batches of 64 KiB or more, so a long list is never one str."""
    if not isinstance(obj, (list, tuple)) or not obj:
        yield _value(obj, "")
        return
    sep, batch, size = "[\n  ", [], 0
    for i, v in enumerate(obj, 1):
        batch.append(_value(v, "  "))
        size += len(batch[-1])
        if size >= 1 << 16 or i == len(obj):
            yield sep
            yield ",\n  ".join(batch)
            sep, batch, size = ",\n  ", [], 0
    yield "\n]"


def _numbers(values, as_json):
    """Numbers comma-separated, or a JSON list of their decimal strings."""
    if as_json and not values:
        return ["[]"]
    body = _joined(map(str, values), '","' if as_json else ",")
    return itertools.chain(['["'], body, ['"]']) if as_json else body


# one CSV line per row: the writer's target hands back each line it gets
_csv_line = csv.writer(argparse.Namespace(write=str),
                       lineterminator="\n").writerow


def _records_csv(records):
    names = [p for p in PARAM_FLAGS
             if any(p in r.param_dict for r in records)]
    yield _csv_line(["statement", "variant", *names, "status", "factors",
                     "note", "elapsed_ms"])
    for r in records:
        pd = r.param_dict
        factors = " | ".join(map(str, r.verdict.factors))
        yield _csv_line(
            [r.statement, r.variant, *[pd.get(p, "") for p in names],
             r.verdict.status.value, factors, r.verdict.note, r.elapsed_ms]
        )


def _records_text(records):
    counts = {}
    for r in records:
        pstr = ", ".join(f"{k}={v}" for k, v in r.params)
        yield f"{r.statement:14s} {r.variant:26s} {pstr:24s} {r.verdict}\n"
        counts[r.verdict.status.value] = counts.get(r.verdict.status.value, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    yield f"{len(records)} cells: {summary}\n"


def _exit_from(records) -> int:
    for r in records:
        if r.hypothesis_error:
            continue  # reported, but the cell never satisfied the hypotheses
        if not r.verdict.ok:
            return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands

def _verify_runs(runs, jobs) -> dict:
    """Records of every (tag, variant, grid) run from one verify call, so
    a command opens at most one process pool; keyed by (tag, variant)."""
    grouped = {(tag, variant): [] for tag, variant, _ in runs}
    for r in verify(runs, jobs=jobs):
        grouped[(r.statement, r.variant)].append(r)
    return grouped


def cmd_verify(args) -> int:
    statements = select_statements(args.statement)
    overrides = collect_overrides(args)
    for name in overrides:
        missing = [s.tag for s in statements if name not in s.params]
        if missing:
            raise UsageError(
                f"--{name} does not apply to: {', '.join(missing)}"
            )
    runs = []
    for stmt in statements:
        variant = resolve_variant(stmt, args.variant)
        grid = build_grid(stmt, overrides)
        if not grid:
            raise UsageError(
                f"no parameter cell satisfies the hypotheses of {stmt.tag};"
                " check the ranges"
            )
        runs.append((stmt.tag, variant, grid))
    grouped = _verify_runs(runs, args.jobs)
    all_records = []
    notes = []
    for stmt, (tag, variant, _) in zip(statements, runs):
        records = grouped[(tag, variant)]
        if stmt.note and any(not r.verdict.ok for r in records):
            notes.append(f"note [{stmt.tag}]: {stmt.note}\n")
        all_records.extend(records)
    if args.format == "json":
        pieces = _json([r.to_dict() for r in all_records])
    elif args.format == "csv":
        pieces = _records_csv(all_records)
    else:
        pieces = itertools.chain(_records_text(all_records), notes)
    _write_out(pieces, args.output)
    return _exit_from(all_records)


def _int_args(args, *names):
    values = []
    for nm in names:
        raw = getattr(args, nm)
        if raw is None:
            raise UsageError(f"compute {args.object} requires --{nm}")
        try:
            values.append(int(raw))
        except ValueError:
            raise UsageError(f"--{nm} must be an integer, got {raw!r}") from None
    return values


def cmd_compute(args) -> int:
    try:
        pieces = _compute(args)
    except ValueError as e:
        # the generators reject out-of-range sizes with ValueError, and
        # every value is computed before any output
        raise UsageError(f"compute {args.object}: {e}") from None
    _write_out(pieces, args.output)
    return EXIT_OK


def _compute(args):
    obj = args.object.replace("-", "_")
    fmt = args.format
    if obj == "cyclotomic":
        (n,) = _int_args(args, "n")
        return _numbers(cyclotomic(n).coeffs, fmt != "csv")
    if obj == "qbinomial":
        n, k = _int_args(args, "n", "k")
        return _numbers(q_binomial(n, k).coeffs, fmt != "csv")
    if obj == "euler_numbers":
        (count,) = _int_args(args, "count")
        return _numbers(euler_numbers(count), fmt == "json")
    if obj == "lehmer_euler":
        r, alpha, count = _int_args(args, "r", "alpha", "count")
        values = lehmer_euler_numbers(r, alpha, count)
        if fmt == "csv":
            rows = ([r, alpha, n, v.numerator, v.denominator]
                    for n, v in enumerate(values))
            return map(_csv_line, itertools.chain(
                [["r", "alpha", "n", "numerator", "denominator"]], rows))
        if fmt == "json":
            return _json([{"r": r, "alpha": alpha, "n": n,
                           "numerator": str(v.numerator),
                           "denominator": str(v.denominator)}
                          for n, v in enumerate(values)])
        return _numbers(values, False)
    if obj == "m_star":
        n, alpha = _int_args(args, "n", "alpha")
        return [str(m_star(n, alpha))]
    raise UsageError(f"unknown compute object {args.object!r}")


def cmd_report(args) -> int:
    statements = select_statements(
        "all" if args.statement is None else args.statement)
    grouped = _verify_runs(
        [(s.tag, v, None) for s in statements for v in reversed(s.variants)],
        args.jobs,
    )
    per_cell = []
    entries = []
    canonical_records = []
    for stmt in statements:
        entry = {
            "statement": stmt.tag,
            "description": stmt.description,
            "canonical_variant": stmt.canonical_variant,
            "variants": {},
        }
        if stmt.note:
            entry["note"] = stmt.note
        for variant in reversed(stmt.variants):
            records = grouped[(stmt.tag, variant)]
            per_cell.extend(records)
            if variant == stmt.canonical_variant:
                canonical_records.extend(records)
            counts = {"holds": 0, "fails": 0, "ill_posed": 0}
            for r in records:
                counts[r.verdict.status.value] += 1
            entry["variants"][variant] = {
                "cells": len(records),
                **counts,
                "records": [r.to_dict() for r in records],
            }
        entries.append(entry)
    if args.format == "json":
        _write_out(_json(entries), args.output)
    elif args.format == "csv":
        _write_out(_records_csv(per_cell), args.output)
    else:
        lines = [
            f"{'statement':14s} {'variant':26s} {'cells':>5s} {'holds':>5s}"
            f" {'fails':>5s} {'ill_posed':>9s}"
        ]
        for entry in entries:
            for variant, info in entry["variants"].items():
                mark = "*" if variant == entry["canonical_variant"] else " "
                lines.append(
                    f"{entry['statement']:14s} {variant + mark:26s}"
                    f" {info['cells']:5d} {info['holds']:5d}"
                    f" {info['fails']:5d} {info['ill_posed']:9d}"
                )
            if entry.get("note"):
                lines.append(f"    note: {entry['note']}")
        lines.append("(* canonical variant; exit code reflects only those rows)")
        _write_out(["\n".join(lines)], args.output)
    return _exit_from(canonical_records)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcong",
        description="exact verification of q-congruences modulo cyclotomic"
        " polynomial powers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text")
        p.add_argument("--output", metavar="FILE", default=None)
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes, clamped to [1, usable CPUs]"
                       " (default: $QCONG_JOBS or 1)")

    pv = sub.add_parser("verify", help="check statements over parameter grids")
    pv.add_argument("--statement", required=True,
                    help="comma-separated tags, or 'all'")
    pv.add_argument("--variant", default=None,
                    help="as_printed, corrected, canonical, or a"
                    " statement-specific variant name")
    for name in PARAM_FLAGS:
        pv.add_argument(f"--{name}", default=None, metavar="RANGE")
    add_common(pv)

    pc = sub.add_parser("compute", help="print one exact object")
    pc.add_argument("object",
                    help="cyclotomic | qbinomial | euler-numbers |"
                    " lehmer-euler | m-star")
    pc.add_argument("--n", default=None)
    pc.add_argument("--k", default=None)
    pc.add_argument("--r", default=None)
    pc.add_argument("--alpha", default=None)
    pc.add_argument("--count", default=None)
    pc.add_argument("--format", choices=("json", "csv", "text"),
                    default="text")
    pc.add_argument("--output", metavar="FILE", default=None)

    pr = sub.add_parser("report",
                        help="run default grids for many statements,"
                        " canonical and as-printed side by side")
    which = pr.add_mutually_exclusive_group()
    which.add_argument("--statement", default=None,
                       help="comma-separated tags (default: all)")
    which.add_argument("--all", action="store_true")
    add_common(pr)
    return parser


# parse_args leaves a parser as it was, so one serves every main call
_parser = lru_cache(maxsize=1)(build_parser)


def resolve_jobs(jobs):
    """--jobs, else $QCONG_JOBS, else 1; clamped to [1, usable CPUs]."""
    if jobs is None:
        raw = os.environ.get("QCONG_JOBS", "1")
        try:
            jobs = int(raw)
        except ValueError:
            raise UsageError(
                f"QCONG_JOBS must be an integer, got {raw!r}"
            ) from None
    # an affinity mask (a container, taskset) may allow fewer CPUs than
    # os.cpu_count() counts; not every platform has one
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return max(1, min(jobs, usable))


def main(argv=None) -> int:
    # argparse reads a value such as -3..4 as an option: join it to its flag
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] in _PARAM_OPTS and re.match(r"-\d", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse uses 2 for usage errors and 0 for --help
        return int(e.code or 0)
    # exact integers of any length print; the caller's limit comes back
    limit = None
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        if hasattr(args, "jobs"):
            args.jobs = resolve_jobs(args.jobs)
        # looked up by name at each call, not bound into the shared parser
        command = {"verify": cmd_verify, "compute": cmd_compute,
                   "report": cmd_report}[args.command]
        return command(args)
    except (UsageError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
