"""Every name the benchmark's tracer wraps exists in mixrank, and tracing leaves no patch behind.

The tracer (``benchmarks/tracer.py``) replaces names in the modules'
namespaces with timing wrappers.  A traced run that misses one refuses to
report, so renaming such a name breaks the benchmark; this catches it here.
"""

import importlib
from pathlib import Path

from mixrank import cli, efficiency, power, rank_tests

MODULES = {"cli": cli, "power": power, "rank_tests": rank_tests, "efficiency": efficiency}


def test_tracer_finds_every_target_and_restores_the_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    tracer = importlib.import_module("tracer")
    before = {name: dict(vars(module)) for name, module in MODULES.items()}
    evaluators = dict(power._EVALUATORS)
    tr = tracer.Tracer()
    try:
        tracer.install_mixrank(tr, MODULES, set())
        assert tr.missing == []
        assert power.replication_rng is not before["power"]["replication_rng"]
    finally:
        tr.restore()
    for name, module in MODULES.items():
        now = vars(module)
        assert [key for key, value in before[name].items() if now.get(key) is not value] == []
    assert all(power._EVALUATORS[kind] is fn for kind, fn in evaluators.items())
