"""The traced benchmark run wraps library names by path; renaming or deleting
one of them must fail here, not only in a traced run."""

import importlib.util
import inspect
import sys
from fractions import Fraction
from pathlib import Path

from tortken import algebras, identcheck
from tortken.freepoly import catalog_entry

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces() -> dict:
    """Every attribute of every tortken module and of its classes, the
    inherited ones included (the tracer wraps `FiniteAlgebra.mul`, which
    `FiniteAlgebra` inherits)."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] != "tortken":
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for member in dir(value):
                    out[name, f"{attr}.{member}"] = inspect.getattr_static(
                        value, member)
    return out


def test_tracer_installs_and_restores_every_wrapped_name():
    spans = _load_spans()
    before = _namespaces()
    tracer = spans.Tracer()
    try:
        tracer.install()
        wrapped = {key for key, value in _namespaces().items()
                   if before.get(key) is not value}
        for module, paths in spans.SPANNED.items():
            for path in paths:
                assert (f"tortken.{module}", path) in wrapped, path
        for path in spans.COUNTED_MUL:
            assert ("tortken.algebras", path) in wrapped, path
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_q_window_sweep_products_are_counted():
    # a Q sweep multiplies on D*A, an algebra of A's class, so the traced
    # run counts its products through the wrapped `GradedAlgebra.mul`
    spans = _load_spans()
    A = algebras.osborn_laurent(Fraction(1, 2), 0, -6, 6)
    tracer = spans.Tracer()
    try:
        tracer.install()
        identcheck.check_identity_windowed(catalog_entry("tortken").poly, A,
                                           range(-2, 3))
    finally:
        tracer.uninstall()
    assert tracer.mul_by_module["identcheck"] > 0
