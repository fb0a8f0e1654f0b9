"""The benchmark's tracer finds the functions it wraps by name, so every name it
lists must exist in its module; a rename would otherwise only show up as a
failed ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _traced_names():
    tracing = _tracing()
    names = [(f"{layer}.{fname}", modname, fname)
             for layer, modules in tracing.LAYERS.items()
             for modname, funcs in modules.items()
             for fname in funcs]
    names += [(qname, modname, fname)
              for qname, (modname, fname) in tracing.COUNTED.items()]
    return names


@pytest.mark.parametrize("qname,modname,fname", _traced_names(),
                         ids=[qname for qname, _, _ in _traced_names()])
def test_traced_function_exists(qname, modname, fname):
    fn = getattr(importlib.import_module(modname), fname, None)
    assert callable(fn), f"{qname}: {modname} has no function {fname!r}"


def test_hooks_attach_to_traced_names():
    tracing = _tracing()
    traced = {qname for qname, _, _ in _traced_names()}
    assert set(tracing.HOOKS) <= traced
