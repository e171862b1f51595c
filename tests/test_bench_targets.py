"""The benchmark's span tracer (bench/spans.py) wraps library functions by
name; every name it lists must still resolve the way Tracer.install does,
or a traced run (`bench/run.py --trace 1`) breaks."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).parent.parent / "bench" / "spans.py"


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, path, _ in spans.TARGETS:
        owner = importlib.import_module(f"zinbiel2.{module}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), f"{module}.{path} does not resolve"
