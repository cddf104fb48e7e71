"""The benchmark tracer's targets name real module-level functions of treecast.

``perfbench/tracer.py`` wraps each (module, name) pair in ``TARGETS``; a
renamed or removed layer would otherwise only surface when a traced
benchmark run fails to bind it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("modname, name", sorted(load_targets()))
def test_target_is_a_module_level_function(modname, name):
    assert modname.startswith("treecast.")
    fn = getattr(importlib.import_module(modname), name, None)
    assert inspect.isfunction(fn), f"{modname}.{name} is not a function"
    assert fn.__module__ == modname
    assert fn.__qualname__ == name
