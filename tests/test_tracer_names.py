"""Every name the benchmark tracer patches still exists in schurkit.

``perfbench/tracer.py`` wraps methods and verify groups by name; a rename or
a dropped re-export would make ``Tracer.install`` fail in the traced
benchmark run only.  These tests resolve each name the way ``install`` does,
without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def _patched(short: str, path: str):
    """The object ``Tracer.install`` would replace, read the way its
    ``_patch`` reads it: from the owner's own namespace."""
    owner, attr = tracer._resolve(importlib.import_module(f"schurkit.{short}"), path)
    assert attr in vars(owner), f"schurkit.{short}.{path} is gone"
    return vars(owner)[attr]


@pytest.mark.parametrize("short", tracer.MODULES)
def test_traced_modules_import(short):
    importlib.import_module(f"schurkit.{short}")


@pytest.mark.parametrize("name", sorted(tracer.METHODS))
def test_traced_methods_resolve(name):
    assert callable(_patched(*tracer.METHODS[name]))


@pytest.mark.parametrize(
    "path", sorted({p for paths in tracer.VERIFY_GROUPS.values() for p in paths})
)
def test_verify_group_names_resolve(path):
    assert callable(_patched("schur", path))
