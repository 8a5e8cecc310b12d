"""The names bench/spans.py traces still exist in the program, and the
configs bench/run.py trains are ones the program accepts.

The benchmark's tracer replaces each SPANS entry and each traced primitive
by name, so a renamed or deleted function would break a traced run, and a
config the program rejects would fail every workload; the benchmark's own
tests are not part of this suite, so this one checks both.
"""

import importlib.util
import inspect
import pathlib
import sys

import pytest

from delta_ctr import model, numerics, trainer

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # run.py's dataclasses look it up
    spec.loader.exec_module(module)
    return module


spans, run = load("spans"), load("run")


@pytest.mark.parametrize("prefix, owner, attr", spans.SPANS, ids=[s[0] for s in spans.SPANS])
def test_every_span_resolves(prefix, owner, attr):
    inspect.getattr_static(owner, attr)  # AttributeError if it is gone
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("name", spans.PRIMITIVES)
def test_every_traced_primitive_is_a_numerics_function(name):
    assert callable(getattr(numerics, name))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_workload_config_is_accepted(workload):
    w = run.WORKLOADS[workload]
    model.ModelConfig(n_fields=39, **w.model)
    trainer.TrainSettings(**w.settings).check_fixed_k(39)
