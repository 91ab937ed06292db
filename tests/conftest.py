from __future__ import annotations

import functools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hgw.catalog import catalog_group  # noqa: E402
from hgw.report import group_census  # noqa: E402


@pytest.fixture
def fresh_cache(monkeypatch):
    """``fresh_cache(module, name)`` rebinds the module's ``functools.cache`` function to an
    empty cache of its own for one test, so what the test builds, fakes included, goes with it."""
    def fresh(module, name: str) -> None:
        monkeypatch.setattr(module, name, functools.cache(getattr(module, name).__wrapped__))

    return fresh


@pytest.fixture(scope="session")
def census42():
    """All six degree-42 censuses with full theorem verification (cached)."""
    from reference_data import GROUPS_42

    return {g: group_census(catalog_group(g)) for g in GROUPS_42}


@pytest.fixture(scope="session")
def model_11_6():
    from hgw.model import make_extension

    return make_extension(11, 6)


@pytest.fixture(scope="session")
def model_11_4():
    from hgw.model import make_extension

    return make_extension(11, 4)
