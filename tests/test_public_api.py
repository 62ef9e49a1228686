"""The public API surface resolves: every ``__all__`` name is importable.

A dangling ``__all__`` entry (a name deleted from its module but still
exported) only fails on ``from repro import *``; this test resolves each
name with ``getattr`` for ``repro`` and every ``repro.*`` subpackage that
declares ``__all__`` — lazily exported names (PEP 562) included.
"""

import importlib
import pkgutil

import pytest

import repro


def _packages_with_all() -> list[str]:
    """``repro`` plus each direct subpackage that defines ``__all__``."""
    names = ["repro"]
    for info in pkgutil.iter_modules(repro.__path__, prefix="repro."):
        if info.ispkg and hasattr(importlib.import_module(info.name), "__all__"):
            names.append(info.name)
    return names


PACKAGES = _packages_with_all()


def test_every_subpackage_with_all_is_checked():
    # guard against the discovery silently finding nothing
    assert "repro.service" in PACKAGES and len(PACKAGES) > 5


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], f"{package}.__all__ names that do not resolve"
    assert len(set(module.__all__)) == len(module.__all__), "duplicate entries"
