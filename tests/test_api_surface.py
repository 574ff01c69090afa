"""Every exported name resolves, and so does every site the benchmark traces."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import amalgam

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(amalgam.__path__):
        module = importlib.import_module(f"amalgam.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_every_benchmark_trace_site_exists():
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sites = [site for _, layer_sites in tracer.TRACED for site in layer_sites]
    assert sites
    missing = [site for site in sites if not hasattr(importlib.import_module(site[0]), site[1])]
    assert not missing
