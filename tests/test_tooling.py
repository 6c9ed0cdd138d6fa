"""The benchmark's span table names live functions.

`perfbench/spans.py` traces public functions by (module, attribute path);
a renamed or deleted function would otherwise fail only the benchmark run.
The file is loaded by path, without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_name_resolves_to_a_callable():
    traced = load_spans().TRACED
    assert traced
    for name, (module, path) in traced.items():
        assert module.startswith("cmtforest."), name
        target = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(target, part), f"{name}: {module} has no {path}"
            target = getattr(target, part)
        assert callable(target), f"{name}: {module}.{path} is not callable"
