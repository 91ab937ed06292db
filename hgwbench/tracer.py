"""Span tracing of hgw's public layers, installed from outside the package.

``install()`` wraps each function named in ``LAYERS`` and rebinds the wrapper
in every ``hgw.*`` module namespace that holds the original, because hgw binds
names with ``from .groups import all_isomorphisms`` and the like. A span is
(name, start, end, parent span); spans stay in flat arrays in memory and are
written once, by ``Tracer.write``, when the run ends. Work counts (records,
isomorphisms returned, pool rows, rref cells, ...) are taken from the
arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from array import array
from pathlib import Path

# (module, attribute path) of every traced entry point
LAYERS = (
    ("enumeration", "enumerate_hgs"),
    ("enumeration", "direct_enumerate_oracle"),
    ("groups", "all_isomorphisms"),
    ("groups", "automorphisms"),
    ("groups", "generating_subset_of"),
    ("groups", "subgroups"),
    ("groups", "core_of"),
    ("regsearch", "regular_subgroups"),
    ("regsearch", "normalized_by"),
    ("catalog", "iso_class"),
    ("perm", "closure"),
    ("perm", "normalizes"),
    ("correspond", "stable_subgroups"),
    ("correspond", "psi"),
    ("correspond", "psi_onto"),
    ("correspond", "orbit_coset_check"),
    ("correspond", "quotient_structure"),
    ("correspond", "induced_block_perm"),
    ("correspond", "coset_space"),
    ("correspond", "correspondence_rows"),
    ("fplin", "rref"),
    ("model", "make_extension"),
    ("model", "fixed_ring_basis"),
    ("model", "act"),
    ("model", "fixed_field"),
    ("model", "hopf_galois_rank"),
    ("model", "exact_sequence_check"),
    ("model", "fixedsum_check"),
    ("fixture24", "run_fixture"),
    ("report", "TableDocument.render"),
    ("report", "correspondence_table_doc"),
)

LAYER_NAMES = tuple(f"{mod}.{attr}" for mod, attr in LAYERS)

# work counts and ratios reported next to the per-layer times
COUNT_NAMES = (
    "enumeration.records",
    "enumeration.useful_ratio",
    "groups.all_isomorphisms.returned",
    "groups.subgroups.returned",
    "regsearch.regular_subgroups.pool_rows",
    "regsearch.regular_subgroups.found",
    "correspond.stable_subgroups.returned",
    "correspond.stable_ratio",
    "correspond.normal_pairs",
    "fplin.rref.cells",
)


def _import_all_hgw() -> None:
    """Import every hgw submodule so that all alias bindings already exist."""
    import hgw

    for info in pkgutil.walk_packages(hgw.__path__, "hgw."):
        importlib.import_module(info.name)


class Tracer:
    """Records spans and work counts for the wrapped layers of one process."""

    def __init__(self):
        self.names = list(LAYER_NAMES)
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = [-1]
        self.counts = dict.fromkeys(
            ["records", "isos_returned", "isos_in_enumeration", "subgroups_returned",
             "subgroups_of_n", "pool_rows", "found", "stable_returned", "normal_pairs",
             "rref_cells"], 0)
        self._originals: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _parent_name(self) -> str | None:
        top = self.stack[-1]
        return None if top < 0 else self.names[self.name_ids[top]]

    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name == "enumeration.enumerate_hgs":
            c["records"] += len(result)
        elif name == "groups.all_isomorphisms":
            c["isos_returned"] += len(result)
            if self._parent_name() == "enumeration.enumerate_hgs":
                c["isos_in_enumeration"] += len(result)
        elif name == "groups.subgroups":
            c["subgroups_returned"] += len(result)
            if self._parent_name() == "correspond.stable_subgroups":
                c["subgroups_of_n"] += len(result)
        elif name == "regsearch.regular_subgroups":
            c["pool_rows"] += len(args[0])
            c["found"] += len(result)
        elif name == "correspond.stable_subgroups":
            c["stable_returned"] += len(result)
        elif name == "correspond.correspondence_rows":
            c["normal_pairs"] += sum(row.count for row in result)
        elif name == "fplin.rref":
            shape = getattr(args[0], "shape", ())
            if len(shape) == 2:
                c["rref_cells"] += shape[0] * shape[1]

    def _wrap(self, name_id: int, fn):
        name = self.names[name_id]
        counted = name in {
            "enumeration.enumerate_hgs", "groups.all_isomorphisms", "groups.subgroups",
            "regsearch.regular_subgroups", "correspond.stable_subgroups",
            "correspond.correspondence_rows", "fplin.rref"}
        countable_pool = name == "regsearch.regular_subgroups"
        perf = time.perf_counter
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.stack)

        def wrapper(*args, **kwargs):
            if countable_pool and not hasattr(args[0], "__len__"):
                args = (list(args[0]),) + args[1:]
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            if counted:
                self._count(name, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer and rebind it under each alias in hgw's modules."""
        _import_all_hgw()
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hgw" or n.startswith("hgw."))]
        for name_id, (mod_name, attr) in enumerate(LAYERS):
            owner = sys.modules[f"hgw.{mod_name}"]
            if "." in attr:  # a method: rebind on its class only
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, original, self._wrap(name_id, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name_id, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def _rebind(self, holder, key: str, original, wrapper) -> None:
        setattr(holder, key, wrapper)
        self._originals.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._originals):
            setattr(holder, key, original)
        self._originals.clear()

    # -- summaries --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls, total_s and self_s per layer plus the work counts."""
        count = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        child_time = [0.0] * count
        for i in range(count):
            parent = self.parents[i]
            if parent >= 0:
                child_time[parent] += durations[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(count):
            nid = self.name_ids[i]
            calls[nid] += 1
            self_s[nid] += durations[i] - child_time[i]
            if not self._nested_in_same(i, nid):
                total[nid] += durations[i]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.total_s"] = total[nid]
            out[f"{name}.self_s"] = self_s[nid]
        c = self.counts
        out.update({
            "enumeration.records": c["records"],
            "enumeration.useful_ratio": _ratio(c["records"], c["isos_in_enumeration"]),
            "groups.all_isomorphisms.returned": c["isos_returned"],
            "groups.subgroups.returned": c["subgroups_returned"],
            "regsearch.regular_subgroups.pool_rows": c["pool_rows"],
            "regsearch.regular_subgroups.found": c["found"],
            "correspond.stable_subgroups.returned": c["stable_returned"],
            "correspond.stable_ratio": _ratio(c["stable_returned"], c["subgroups_of_n"]),
            "correspond.normal_pairs": c["normal_pairs"],
            "fplin.rref.cells": c["rref_cells"],
        })
        return out

    def _nested_in_same(self, i: int, nid: int) -> bool:
        parent = self.parents[i]
        while parent >= 0:
            if self.name_ids[parent] == nid:
                return True
            parent = self.parents[parent]
        return False

    def write(self, path: Path, meta: dict) -> None:
        """Write every span (columnar) with the run's stamp."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "meta": meta,
            "names": self.names,
            "span_name": self.name_ids.tolist(),
            "span_parent": self.parents.tolist(),
            "span_start_s": self.starts.tolist(),
            "span_end_s": self.ends.tolist(),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
