"""The benchmark tracer (perfbench/tracer.py) still finds what it hooks.

The tracer wraps named functions and methods of the package and reads
fields of ``ScanResult``; a rename would otherwise surface only when a
traced benchmark run fails.
"""
from __future__ import annotations

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from shilow import ScanResult

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracer = _tracer()
    for layer in tracer.LAYERS:
        importlib.import_module(f"shilow.{layer}")
    for module_name, attr, cls, _kind, _hook in tracer.TARGETS:
        module = importlib.import_module(module_name)
        holder = module if cls is None else vars(module)[cls]
        assert attr in vars(holder), f"{module_name}.{cls or ''}.{attr}"


def test_scan_result_keeps_the_traced_fields():
    fields = {field.name for field in dataclasses.fields(ScanResult)}
    assert {"group", "visited", "stop_length", "minima"} <= fields
