"""Spans and counters for the traced run, recorded from outside the library.

`Tracer.install` replaces the public functions of each tortken module with
wrappers, in every tortken module namespace that holds them (``cli`` and
``identcheck`` import several of them by name), and `uninstall` puts the
originals back.  A call records a span (name, module, start, end, parent)
unless the innermost open span already belongs to the same module; then it is
only counted, so self time per module stays exact while recursion and hot
per-element calls stay cheap.  ``FiniteAlgebra.mul`` and ``GradedAlgebra.mul``
are always counted only, keyed by the module of the innermost open span.
Spans are kept in memory; `to_json` hands them out at the end of the run.
"""

from __future__ import annotations

import re
import sys
import time
from collections import Counter

from tortken import algebras, cli, exactnum, freepoly, idealtool, identcheck

MODULES = {"exactnum": exactnum, "freepoly": freepoly, "algebras": algebras,
           "identcheck": identcheck, "idealtool": idealtool, "cli": cli}

SPANNED = {
    "exactnum": ("Matrix.__init__", "Matrix.rref", "Matrix.nullspace",
                 "Matrix.det", "Matrix.solve", "Matrix.mul_vec", "binomial",
                 "lucas_binomial", "binom_p_quotient", "is_prime"),
    "freepoly": ("parse", "catalog", "catalog_entry", "polarize",
                 "multilinear_monomials", "mu_vector"),
    "algebras": ("divided_power", "standard_derivation", "derivation_novikov",
                 "derivation_symmetric", "osborn", "osborn_plus_explicit",
                 "osborn_laurent", "osborn_bar_laurent", "osborn_bar_finite",
                 "osborn_bar_laurent_beta", "osborn_bar", "gametic",
                 "integration_product", "square_product", "p2_product", "plus",
                 "minus", "opposite", "twist", "tensor_leibniz",
                 "random_commutative", "subalgebra_on_basis",
                 "algebra_from_spec", "builtin_algebra"),
    "identcheck": ("evaluate", "check_identity", "check_identity_windowed",
                   "identity_space", "reference_deg4_report",
                   "verify_reference_solutions", "degree3_system",
                   "tortken_prime_relation"),
    "idealtool": ("Subspace.__init__", "Subspace.reduce", "ideal_closure",
                  "is_ideal", "certify_simplicity", "psi_char0",
                  "psi_cyclic_char0", "psi_charp"),
    "cli": ("main",),
}
COUNTED_MUL = ("FiniteAlgebra.mul", "GradedAlgebra.mul")

_KERNEL_POINTS = re.compile(r"(\d+) kernel points")


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans and counts of one phase of a run (set-up or one pass)."""

    def __init__(self):
        self.spans: list[list] = []   # [name, module, start, end, parent]
        self.stack: list[int] = []
        self.top = "bench"            # module of the innermost open span
        self.counts: Counter = Counter()
        self.mul_by_module: Counter = Counter()
        self._saved: list = []

    # -- installing wrappers ---------------------------------------------------

    def install(self) -> None:
        for mod_name, paths in SPANNED.items():
            module = MODULES[mod_name]
            for path in paths:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
                wrapper = self._spanning(f"{mod_name}.{path}", mod_name,
                                         original, _HOOKS.get(path))
                self._replace(owner, attr, original, wrapper)
        for path in COUNTED_MUL:
            owner, attr = _resolve(algebras, path)
            original = getattr(owner, attr)
            self._replace(owner, attr, original, self._counting_mul(original))

    def _replace(self, owner, attr, original, wrapper) -> None:
        targets = [owner]
        if isinstance(owner, type(sys)):
            # every tortken module that imported the function by name
            targets = [m for name, m in sys.modules.items()
                       if name.split(".")[0] == "tortken"
                       and getattr(m, attr, None) is original]
        for target in targets:
            self._saved.append((target, attr, original))
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def _spanning(self, name, module, fn, hook):
        tracer = self
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if tracer.top == module:
                result = fn(*args, **kwargs)
            else:
                idx = len(spans)
                outer = tracer.top
                spans.append([name, module, clock(), None,
                              stack[-1] if stack else None])
                stack.append(idx)
                tracer.top = module
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[idx][3] = clock()
                    stack.pop()
                    tracer.top = outer
            if hook is not None:
                hook(counts, args, result)
            return result
        return wrapper

    def _counting_mul(self, fn):
        tracer = self
        by_module = self.mul_by_module

        def mul(algebra, a, b):
            by_module[tracer.top] += 1
            return fn(algebra, a, b)
        return mul

    # -- results ---------------------------------------------------------------

    def self_seconds(self) -> dict:
        """Span time minus child span time, summed per module."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {module: 0.0 for module in MODULES}
        for (_, module, start, end, _), c in zip(self.spans, child):
            out[module] += end - start - c
        return out

    def module_seconds(self, module: str) -> float:
        """Time inside spans of one module, children included."""
        return sum(end - start for _, mod, start, end, _ in self.spans
                   if mod == module)

    def to_json(self, phase: str) -> list:
        """The spans as records; `id` and `parent` number spans within one
        phase."""
        return [{"phase": phase, "id": i, "name": n, "start": s, "end": e,
                 "parent": p} for i, (n, _, s, e, p) in enumerate(self.spans)]


# -- count hooks (run on every wrapped call, spanned or not) --------------------

def _rref(counts, args, _result):
    m = args[0]
    counts["rref_cells"] += m.rows * m.cols


def _outcome(counts, _args, out):
    counts["checked"] += out.checked
    counts["skipped"] += out.skipped


def _report(counts, _args, rep):
    counts["checked"] += rep.substitution_count
    counts["skipped"] += rep.skipped
    counts["idspace_rows"] += rep.matrix.rows


def _certificate(counts, _args, cert):
    for line in cert.audit:
        for n in _KERNEL_POINTS.findall(line):
            counts["kernel_points"] += int(n)


_HOOKS = {
    "Matrix.rref": _rref,
    "check_identity": _outcome,
    "check_identity_windowed": _outcome,
    "tortken_prime_relation": _outcome,
    "identity_space": _report,
    "certify_simplicity": _certificate,
}


def per_layer_metrics(setup: Tracer, traced: Tracer) -> dict:
    """The per-layer metrics of BENCHMARK.json from a traced set-up and pass
    (without the pool timings and trace overhead, which need untraced runs)."""
    c = traced.counts
    self_s = traced.self_seconds()
    assignments = c["checked"] + c["skipped"]
    ident_muls = traced.mul_by_module["identcheck"]
    return {
        "exactnum.rref_calls": (c["exactnum.Matrix.rref"], "count"),
        "exactnum.rref_cells": (c["rref_cells"], "count"),
        "exactnum.self_s": (self_s["exactnum"], "s"),
        "algebras.mul_calls": (sum(traced.mul_by_module.values()), "count"),
        "algebras.build_s": (setup.module_seconds("algebras"), "s"),
        "freepoly.self_s": (self_s["freepoly"], "s"),
        "identcheck.self_s": (self_s["identcheck"], "s"),
        "identcheck.assignments": (assignments, "count"),
        "identcheck.mul_per_assignment": (
            ident_muls / assignments if assignments else 0.0, "mul/assignment"),
        "identcheck.useful_ratio": (
            c["checked"] / assignments if assignments else 0.0, "ratio"),
        "identcheck.evaluate_calls": (c["identcheck.evaluate"], "count"),
        "identcheck.idspace_rows": (c["idspace_rows"], "count"),
        "idealtool.self_s": (self_s["idealtool"], "s"),
        "idealtool.subspace_builds": (c["idealtool.Subspace.__init__"], "count"),
        "idealtool.reduce_calls": (c["idealtool.Subspace.reduce"], "count"),
        "idealtool.kernel_points": (c["kernel_points"], "count"),
        "cli.self_s": (self_s["cli"], "s"),
    }
