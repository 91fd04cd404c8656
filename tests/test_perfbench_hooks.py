"""The benchmark's layer tracer wraps library names from outside; this test
installs and uninstalls it in-process, so a rename or deletion of a name it
wraps or reads fails here and not first in a traced benchmark run."""

import importlib.util
from pathlib import Path

import superimm.cli  # noqa: F401  (every library module is a namespace the tracer rebinds in)
from superimm import ratlinalg
from superimm.superring import Algebra

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer) -> dict:
    return {
        (getattr(ns, "__module__", None), ns.__name__, attr): value
        for ns in tracer._namespaces()
        for attr, value in vars(ns).items()
    }


def test_tracer_installs_and_restores_every_name():
    tracer = _load_tracer()
    before = _bindings(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        assert ratlinalg.char_poly is not before[(None, "superimm.ratlinalg", "char_poly")]
        alg = Algebra("hooks")
        a, b = alg.even("a", "b")
        ratlinalg.char_poly([[1, 2], [3, 4]])
        assert (a + b) * (a - b) == a * a - b * b
        metrics = t.layer_metrics()
        assert metrics["ratlinalg.calls"] == 1
        assert metrics["superring.mul.calls"] >= 1
        assert metrics["superring.mul.term_pairs"] >= 4
    finally:
        t.uninstall()
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert moved == []
