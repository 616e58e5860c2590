"""Per-layer tracing of qcong from outside the program.

`Tracer.install()` replaces the public entry points of each qcong module
with timing wrappers and leaves the program's files untouched. Each
wrapper records calls, total time (outermost call of that span only, so
recursion is not counted twice) and self time (duration minus the time
of nested wrapped calls, kept on a child-time stack). Spans are
aggregated in memory; `metrics()` turns them into the per-layer metrics
named in BENCHMARK.json.

Only the process that installed the tracer records spans. Workers forked
by `--jobs` inherit the wrappers but switch them off at fork, so under
`--jobs` the figures cover the parent side only; worker spans need
tracing inside the program.
"""

from __future__ import annotations

import os
import sys
import time

_clock = time.perf_counter


class _Span:
    __slots__ = ("calls", "total", "self_time", "depth", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.durations = None  # a list when outermost durations are kept


def _module(name: str):
    # `import qcong.cyclotomic` would bind the function that qcong/__init__
    # re-exports under the same name, so take modules from sys.modules.
    return sys.modules[f"qcong.{name}"]


def _qcong_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "qcong" or k.startswith("qcong."))]


def _nearest_rank(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[idx]


class Tracer:
    def __init__(self):
        self.spans: dict[str, _Span] = {}
        self.stack: list[list[float]] = []
        self.enabled = True
        self.counts = {
            "coeff_products": 0,
            "div_success": 0,
            "gcd_const_input": 0,
            "gcd_nontrivial": 0,
            "diff_degree_max": 0,
            "diff_bits_max": 0,
        }
        self.caches = {}

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        span = self.spans.setdefault(name, _Span())
        stack = self.stack
        clock = _clock
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            span.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                span.depth -= 1
                span.calls += 1
                span.self_time += dt - frame[0]
                if not span.depth:
                    span.total += dt
                    if span.durations is not None:
                        span.durations.append(dt)
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def patch_function(self, name: str, fn, observe=None, modules=None):
        """Replace fn wherever a qcong module binds it (or in `modules`)."""
        traced = self.wrap(name, fn, observe)
        for mod in modules or _qcong_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)
        return traced

    def patch_method(self, name: str, cls, attr: str, observe=None):
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], observe))

    # -- observers (run after the span closes) ----------------------------

    def _on_mul(self, args, result):
        if result is NotImplemented:
            return
        a, b = args
        # an integer factor counts as a polynomial of length 1
        self.counts["coeff_products"] += len(a) * (1 if isinstance(b, int) else len(b))

    def _on_div(self, args, result):
        if result is not None:
            self.counts["div_success"] += 1

    def _on_gcd(self, args, result):
        a, b = args
        if len(a) <= 1 or len(b) <= 1:
            self.counts["gcd_const_input"] += 1
        if len(result) > 1:
            self.counts["gcd_nontrivial"] += 1

    def _on_valuation(self, args, result):
        p = args[0]
        if len(p) - 1 > self.counts["diff_degree_max"]:
            self.counts["diff_degree_max"] = len(p) - 1
        bits = max((abs(c).bit_length() for c in p), default=0)
        if bits > self.counts["diff_bits_max"]:
            self.counts["diff_bits_max"] = bits

    # -- installation -----------------------------------------------------

    def install(self):
        exact = _module("exact")
        qcomb = _module("qcombinatorics")
        cyclo = _module("cyclotomic")
        congr = _module("congruence")
        stmts = _module("statements")
        euler = _module("euler")
        lehmer = _module("lehmer")
        cli = _module("cli")

        # exact: Poly.__mul__ and __rmul__ are separate class bindings
        # (_pseudo_rem's `lb * r` reaches __rmul__); both feed one span.
        self.patch_method("exact.poly_mul", exact.Poly, "__mul__", self._on_mul)
        self.patch_method("exact.poly_mul", exact.Poly, "__rmul__", self._on_mul)
        self.patch_method("exact.div_core", exact.Poly, "_div_core", self._on_div)
        self.patch_method("exact.qexpr_init", exact.QExpr, "__init__")
        # QExpr.__init__ looks gcd_rational up as a module global
        self.patch_function("exact.gcd_rational", exact.gcd_rational, self._on_gcd)

        # one span for the whole module: its total is the time spent
        # anywhere inside qcombinatorics, nested calls counted once
        for fname in ("q_integer", "q_pochhammer", "q_binomial",
                      "q_fermat_quotient", "q_harmonic"):
            fn = getattr(qcomb, fname)
            if hasattr(fn, "cache_info"):
                self.caches[f"qcombinatorics.{fname}"] = fn
            self.patch_function("qcombinatorics", fn)
        self.caches["cyclotomic.cyclotomic"] = cyclo.cyclotomic

        self.patch_function("cyclotomic.phi_valuation", cyclo.phi_valuation,
                            self._on_valuation)
        self.patch_function("congruence.check_congruence", congr.check_congruence)
        self.patch_function("congruence.check_int_congruence",
                            congr.check_int_congruence)

        for stmt in stmts.REGISTRY.values():
            # Statement is a frozen dataclass; hypotheses count as build time
            object.__setattr__(stmt, "hypotheses",
                               self.wrap("statements.hypotheses", stmt.hypotheses))
            object.__setattr__(stmt, "build",
                               self.wrap("statements.build", stmt.build))
        # cell latency comes from the span: a record's elapsed_ms is
        # truncated to whole milliseconds
        self.patch_function("statements.run_cell", stmts.run_cell)
        self.spans["statements.run_cell"].durations = []
        self.patch_function("statements.verify", stmts.verify)
        # the CLI's binding once more, to split verify time inside main
        self.patch_function("cli.verify", cli.verify, modules=[cli])

        self.patch_function("euler.euler_polynomial_value",
                            euler.euler_polynomial_value)
        self.patch_function("euler.euler_numbers", euler.euler_numbers)
        self.patch_function("lehmer.lehmer_euler_numbers",
                            lehmer.lehmer_euler_numbers)
        # only the CLI's own binding: cyclotomic() also recurses and serves
        # phi_valuation, which are not compute commands
        self.patch_function("cli.compute_cyclotomic", cli.cyclotomic,
                            modules=[cli])
        self.patch_function("cli.main", cli.main)

        os.register_at_fork(after_in_child=self._disable)
        return self

    def _disable(self):
        self.enabled = False

    # -- readout ----------------------------------------------------------

    def raw(self) -> dict:
        """Exact counts that must repeat for a given seed."""
        out = {f"{k}.calls": v.calls for k, v in sorted(self.spans.items())}
        out.update(self.counts)
        for name, fn in sorted(self.caches.items()):
            info = fn.cache_info()
            out[f"{name}.hits"] = info.hits
            out[f"{name}.misses"] = info.misses
        return out

    def metrics(self) -> dict:
        s = self.spans
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        def hit_ratio(name):
            info = self.caches[name].cache_info()
            return ratio(info.hits, info.hits + info.misses)

        cell_ms = [1000.0 * d for d in s["statements.run_cell"].durations]
        compute_total = sum(s[k].total for k in (
            "cli.compute_cyclotomic", "euler.euler_numbers",
            "lehmer.lehmer_euler_numbers"))
        return {
            "exact.poly_mul.calls": s["exact.poly_mul"].calls,
            "exact.poly_mul.self_s": s["exact.poly_mul"].self_time,
            "exact.poly_mul.coeff_products": c["coeff_products"],
            "exact.div_core.calls": s["exact.div_core"].calls,
            "exact.div_core.self_s": s["exact.div_core"].self_time,
            "exact.div_core.success_ratio":
                ratio(c["div_success"], s["exact.div_core"].calls),
            "exact.gcd_rational.calls": s["exact.gcd_rational"].calls,
            "exact.gcd_rational.total_s": s["exact.gcd_rational"].total,
            "exact.gcd_rational.self_s": s["exact.gcd_rational"].self_time,
            "exact.gcd_rational.const_input_calls": c["gcd_const_input"],
            "exact.gcd_rational.nontrivial_ratio":
                ratio(c["gcd_nontrivial"], s["exact.gcd_rational"].calls),
            "exact.qexpr_init.calls": s["exact.qexpr_init"].calls,
            "exact.qexpr_init.self_s": s["exact.qexpr_init"].self_time,
            "qcombinatorics.q_binomial.hit_ratio":
                hit_ratio("qcombinatorics.q_binomial"),
            "qcombinatorics.q_pochhammer.hit_ratio":
                hit_ratio("qcombinatorics.q_pochhammer"),
            "qcombinatorics.q_fermat_quotient.hit_ratio":
                hit_ratio("qcombinatorics.q_fermat_quotient"),
            "qcombinatorics.total_s": s["qcombinatorics"].total,
            "cyclotomic.phi_valuation.calls": s["cyclotomic.phi_valuation"].calls,
            "cyclotomic.phi_valuation.total_s": s["cyclotomic.phi_valuation"].total,
            "cyclotomic.cyclotomic.hit_ratio": hit_ratio("cyclotomic.cyclotomic"),
            "congruence.check_congruence.calls":
                s["congruence.check_congruence"].calls,
            "congruence.check_congruence.total_s":
                s["congruence.check_congruence"].total,
            "congruence.diff_s": s["congruence.check_congruence"].total
                - s["cyclotomic.phi_valuation"].total,
            "congruence.diff_num_degree_max": c["diff_degree_max"],
            "congruence.diff_num_bits_max": c["diff_bits_max"],
            "congruence.check_int_congruence.calls":
                s["congruence.check_int_congruence"].calls,
            "congruence.check_int_congruence.total_s":
                s["congruence.check_int_congruence"].total,
            "statements.build.calls": s["statements.build"].calls,
            "statements.build.total_s": s["statements.build"].total
                + s["statements.hypotheses"].total,
            "statements.run_cell.p50_ms": _nearest_rank(cell_ms, 0.5),
            "statements.run_cell.p90_ms": _nearest_rank(cell_ms, 0.9),
            "statements.verify.calls": s["statements.verify"].calls,
            "statements.verify.total_s": s["statements.verify"].total,
            "statements.driver_s": s["statements.verify"].total
                - s["statements.run_cell"].total,
            "euler.euler_polynomial_value.calls":
                s["euler.euler_polynomial_value"].calls,
            "euler.euler_polynomial_value.total_s":
                s["euler.euler_polynomial_value"].total,
            "lehmer.lehmer_euler_numbers.total_s":
                s["lehmer.lehmer_euler_numbers"].total,
            "cli.main.total_s": s["cli.main"].total,
            "cli.overhead_s": s["cli.main"].total
                - s["cli.verify"].total - compute_total,
        }
