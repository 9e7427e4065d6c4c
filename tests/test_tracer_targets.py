"""The benchmark tracer wraps package functions by name; every name it lists
must exist, or a traced benchmark run fails on the first rename."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for name, modname, path, _ in tracer.TARGETS:
        holder = importlib.import_module(modname)
        if "." in path:  # a method, looked up on its class as the tracer does
            cls_name, meth = path.split(".")
            holder = vars(getattr(holder, cls_name))
            assert meth in holder, name
        else:
            assert callable(getattr(holder, path, None)), name
    access = importlib.import_module("mmsplab.access").AccessStructure
    for meth in tracer.SUBSET_ITERATORS:
        assert meth in vars(access), meth
