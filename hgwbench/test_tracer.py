"""Self-test of the benchmark's tracing and seeding, on tiny inputs.

Run from the repository root with either of:

    PYTHONPATH=src python3 -m pytest -q hgwbench/test_tracer.py
    PYTHONPATH=src python3 hgwbench/test_tracer.py
"""

from __future__ import annotations

import json
import sys

import tracer
import workloads


def _tiny_ops(seed: int) -> dict:
    """An order-6 census, its brute-force oracle, model_report(11, 4), the fixture."""
    d3 = workloads.seeded_group("D3", seed)
    return {
        "census(D3)": workloads.census_op(d3),
        "oracle(D3)": workloads.oracle_op(d3),
        "model_report(11, 4)": workloads.model_op(11, 4),
        "run_fixture": workloads.fixture_op(),
    }


def test_every_alias_is_rebound_and_every_layer_is_called():
    t = tracer.Tracer()
    t.install()
    try:
        originals = {id(orig) for _, _, orig in t._originals}
        stale = [f"{name}.{key}" for name, module in sorted(sys.modules.items())
                 if name == "hgw" or name.startswith("hgw.")
                 for key, value in vars(module).items() if id(value) in originals]
        assert not stale, f"names still bound to unwrapped layers: {stale}"
        # the aliases that make the rebinding necessary
        aliases = {f"{getattr(holder, '__name__', holder)}.{key}"
                   for holder, key, _ in t._originals}
        for alias in ("hgw.enumeration.all_isomorphisms", "hgw.correspond.normalizes",
                      "hgw.enumeration.iso_class", "hgw.report.subgroups_of"):
            assert alias in aliases, alias
        traced = _tiny_ops(seed=1)
    finally:
        t.uninstall()
    metrics = t.layer_metrics()
    uncalled = [name for name in tracer.LAYER_NAMES if metrics[f"{name}.calls"] < 1]
    assert not uncalled, f"layers without a recorded call: {uncalled}"
    for name in tracer.LAYER_NAMES:
        assert 0.0 <= metrics[f"{name}.self_s"] <= metrics[f"{name}.total_s"] + 1e-9, name
    for name in tracer.COUNT_NAMES:
        assert metrics[name] > 0, name
    untraced = _tiny_ops(seed=1)
    assert json.dumps(traced, sort_keys=True) == json.dumps(untraced, sort_keys=True)


def test_outputs_are_byte_identical_across_seeds():
    d6 = [workloads.census_op(workloads.seeded_group("D6", seed)) for seed in (1, 2)]
    assert json.dumps(d6[0], sort_keys=True) == json.dumps(d6[1], sort_keys=True)
    g1, g2 = (workloads.seeded_group("D6", seed) for seed in (1, 2))
    assert g1.table != g2.table, "seeds must draw different labellings"


def test_relabelling_keeps_identity_and_group_law():
    base = workloads.seeded_group("S4", 0)
    group = workloads.seeded_group("S4", 7)
    assert group.table[0] == tuple(range(24))
    assert group.check_associative()
    assert sorted(group.element_orders()) == sorted(base.element_orders())


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
