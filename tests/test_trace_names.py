"""The names bench/spans.py traces still exist in the program.

The benchmark's tracer replaces each SPANS entry and each traced primitive
by name, so a renamed or deleted function would break a traced run; the
benchmark's own tests are not part of this suite, so this one checks it.
"""

import importlib.util
import inspect
import pathlib

import pytest

from delta_ctr import numerics

SPANS_PATH = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("prefix, owner, attr", spans.SPANS, ids=[s[0] for s in spans.SPANS])
def test_every_span_resolves(prefix, owner, attr):
    inspect.getattr_static(owner, attr)  # AttributeError if it is gone
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("name", spans.PRIMITIVES)
def test_every_traced_primitive_is_a_numerics_function(name):
    assert callable(getattr(numerics, name))
