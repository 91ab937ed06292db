"""Start each test module under ``hgwbench/`` from cold hgw caches.

Every benchmark repetition is a fresh interpreter, so the benchmark's own
self-test must not read holomorphs, lattices or catalog groups that earlier
test modules of the same pytest process left in hgw's ``functools.cache``
functions, as in:

    PYTHONPATH=src python -m pytest -q tests hgwbench/test_tracer.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HGWBENCH = Path(__file__).resolve().parent / "hgwbench"


@pytest.fixture(scope="module", autouse=True)
def cold_hgw_caches(request):
    if HGWBENCH in Path(request.path).resolve().parents:
        for name, module in list(sys.modules.items()):
            if name == "hgw" or name.startswith("hgw."):
                for value in list(vars(module).values()):
                    if callable(getattr(value, "cache_clear", None)):
                        value.cache_clear()
