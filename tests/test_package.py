"""Every exported name resolves, for the package and each module."""

import importlib

import pytest

MODULES = ("shearspec", "shearspec.assembly", "shearspec.certificates",
           "shearspec.cli", "shearspec.cross_section", "shearspec.eigcore",
           "shearspec.geometry", "shearspec.thresholds",
           "shearspec.waveguide")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
