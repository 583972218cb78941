"""The self-check catalogue behind ``radialhf validate``, entry by entry."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import radialhf
from radialhf import CoefficientTable, build_coefficient_table, validate


@pytest.mark.parametrize("check", validate.catalogue("full"), ids=lambda c: c.name)
def test_check(check):
    result = check.run()
    assert result.passed, result.detail


def test_levels():
    quick, full = validate.catalogue("quick"), validate.catalogue("full")
    assert (len(quick), len(full)) == (35, 41)
    assert quick == [c for c in full if c.level == "quick"]
    with pytest.raises(ValueError):
        validate.catalogue("slow")


def test_coefficient_check_localizes_tampering():
    # one corrupted angular coefficient is not merely rejected: the check
    # names exactly the damaged (l, l', k) entry
    check = validate.CATALOGUE["angular/quadrature-match"]
    clean = build_coefficient_table(5)
    assert check.run(table=clean).passed
    data = dict(clean._data)
    data[(1, 1, 2)] *= 1.02
    result = check.run(table=CoefficientTable(max_l=clean.max_l, _data=data))
    assert not result.passed
    assert result.note.endswith("off at [(1, 1, 2)]")


def test_every_export_resolves():
    modules = [radialhf] + [
        importlib.import_module(f"radialhf.{info.name}")
        for info in pkgutil.iter_modules(radialhf.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
