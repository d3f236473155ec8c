"""Every exported name resolves, for the package and each module, and so
does every name the benchmark tracer wraps."""

import importlib
from pathlib import Path

import pytest

MODULES = ("shearspec", "shearspec.assembly", "shearspec.certificates",
           "shearspec.cli", "shearspec.cross_section", "shearspec.eigcore",
           "shearspec.geometry", "shearspec.waveguide")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_traced_names_resolve(monkeypatch):
    # perfbench/spans.py wraps these functions and methods by name; a
    # rename in the package must fail here, not only in the bench run
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    traced = spans.FUNCTIONS + spans.METHODS
    assert traced
    assert [name for name, owner, attr, _ in traced
            if not hasattr(owner, attr)] == []
