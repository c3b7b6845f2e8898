"""The benchmark's tracer rebinds package functions by name; keep them there."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_binding_exists():
    """Every (module, attribute) that perfbench/tracer.py rebinds is still
    a callable of that module, so a traced run cannot crash on a name that
    a cleanup removed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{span}: {mod.__name__}.{attr}"
        for span, sites in tracer.SPANS.items()
        for mod, attr in sites
        if not callable(getattr(mod, attr, None))
    ]
    assert tracer.SPANS and not missing, missing
