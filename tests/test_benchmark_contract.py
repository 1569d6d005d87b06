"""The benchmark's tracer patches methods by name; each must exist where it looks.

``perfbench/tracer.py`` replaces ``vars(cls)[name]`` for every entry of its
``SPAN_METHODS`` and ``LEAF_METHODS``.  A refactor that moves or drops one of
those methods breaks the traced benchmark run, so this test fails first.  The
tracer module is loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_method_is_defined_on_its_class(tracer):
    assert tracer.SPAN_METHODS and tracer.LEAF_METHODS
    for entry in tracer.SPAN_METHODS + tracer.LEAF_METHODS:
        tag, cls_name, meth = entry[:3]
        cls = getattr(importlib.import_module(f"georev.{tag}"), cls_name)
        assert meth in vars(cls), f"georev.{tag}.{cls_name} defines no {meth!r}"
