"""The benchmark's tracer can wrap and unwrap every name it traces.

``bench/tracer.py`` resolves the functions, methods and constructors it
wraps by name; deleting one of them from the package breaks ``--trace 1``
runs.  This test fails first.
"""

import importlib
import sys
from pathlib import Path

import scalefit.cli  # noqa: F401  (loads every module the tracer wraps)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bound(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        tracer_module = importlib.import_module("tracer")
        sf = sys.modules["scalefit"]
        targets = [(owner, attr) for _, owner, attr, _, _ in tracer_module._targets(sf)]
        targets += [(cls, "__post_init__") for _, cls in tracer_module._constructors(sf)]
        before = [_bound(owner, attr) for owner, attr in targets]

        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            assert all(
                _bound(owner, attr) is not raw
                for (owner, attr), raw in zip(targets, before)
            )
        finally:
            tracer.uninstall()
        assert [_bound(owner, attr) for owner, attr in targets] == before
    finally:
        sys.modules.pop("tracer", None)
