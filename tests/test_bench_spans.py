"""The benchmark tracer (`bench/spans.py`) wraps robinwg callables by name.

A renamed or removed callable would only show when a traced benchmark run
(`bench/run.py --trace 1`) fails; this checks the names without running it.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_wrapped_callable_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, names in spans.WRAPPED.items():
        mod = importlib.import_module(f"robinwg.{module}")
        for qual in names:
            # looked up as Tracer.install looks them up
            cls_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            target = vars(owner).get(attr) if owner is not None else None
            if not (callable(target) or isinstance(target, classmethod)):
                missing.append(f"robinwg.{module}.{qual}")
    assert not missing, f"bench/spans.py wraps missing callables: {missing}"
