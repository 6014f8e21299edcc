"""The benchmark's span wrappers still find every callable they name.

``bench/tracing.py`` reports a renamed or removed name as missing instead of
failing, so a refactor could silently drop a layer from the traced metrics.
Only ``targets`` is called here: ``install`` would wrap the package's
functions for the rest of the test session.
"""

import importlib.util
from pathlib import Path

import anomstream
import anomstream.cli  # noqa: F401  (targets reads the submodules as attributes)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # tracing imports its sibling ``speed``
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_is_callable(monkeypatch):
    tracing = load_tracing(monkeypatch)
    targets = tracing.targets(anomstream)
    assert targets
    unresolved = [
        f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
        for name, bindings, _, _ in targets
        for owner, attr in bindings
        if owner is None or not callable(getattr(owner, attr, None))
    ]
    assert unresolved == []
