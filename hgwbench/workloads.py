"""The benchmark's workloads: seeded inputs, operations and their outputs.

Every input comes from the seed. Each group G is a catalog group whose Cayley
table is relabelled by a seeded permutation that keeps the identity at index
0 (seed 0 keeps the catalog labelling), and the primes of the descent sweep
are drawn from ``PRIMES``. hgw receives only the generated ``FiniteGroup``s
and ``(p, n)``. Each operation returns an output made of isomorphism
invariants (class names, counts, digests of rendered tables), so one stored
reference, ``reference.json``, checks every seed.

hgw functions are looked up on their modules at call time, so that the
tracer's rebinding also covers the benchmark's own outermost calls.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import hgw.catalog as catalog
import hgw.correspond as correspond
import hgw.dsl as dsl
import hgw.enumeration as enumeration
import hgw.fixture24 as fixture24
import hgw.groups as groups
import hgw.report as report
from hgw.errors import GroupSpecError

# census42: an order-42 group whose census spends about half in the correspondence
CENSUS_GROUPS = ("D21",)
# enum24: abelian and non-abelian G, |Aut(G)| 8 and 24, 18 to 54 structures
ENUM_GROUPS = ("C24", "SL(2,3)", "C3:C8")
# verify_small: every group of order 1 to 8 (C5 is outside the catalog)
ORACLE_GROUPS = ("C1", "C2", "C3", "C4", "C2^2", "C5", "C6", "D3", "C7",
                 "C8", "C4 x C2", "C2^3", "D4", "Q8")
MODEL_DEGREES = range(2, 9)
PRIME_COUNT = 3
PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
MODEL_CHECKS = ("fix", "rank", "exact", "fixedsum")

# The known coverage gap: hgw's catalog has no order 5. Operations that hit it
# are counted as coverage gaps; once covered, their output is checked instead.
GAP_MESSAGE = "catalog does not cover order 5"

WORKLOADS = ("census42", "enum24", "verify_small")


@dataclass(frozen=True)
class Op:
    """One operation: ``key`` names its expected output in the reference."""

    name: str
    key: str
    run: Callable[[], dict]
    may_hit_gap: bool = False


def is_gap(op: Op, exc: BaseException) -> bool:
    """True iff ``op`` failed only because it reached the known coverage gap."""
    return op.may_hit_gap and isinstance(exc, GroupSpecError) and str(exc) == GAP_MESSAGE


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def relabel(group: groups.FiniteGroup, rng: random.Random | None) -> groups.FiniteGroup:
    """A copy of ``group`` with elements 1..n-1 permuted; None keeps the labels."""
    n = group.order
    rest = list(range(1, n))
    if rng is not None:
        rng.shuffle(rest)
    new = [0] + rest  # old index i becomes new index new[i]
    table = [[0] * n for _ in range(n)]
    labels = [""] * n
    for a in range(n):
        labels[new[a]] = group.elements[a]
        row = group.table[a]
        for b in range(n):
            table[new[a]][new[b]] = new[row[b]]
    return groups.FiniteGroup(labels, table, spec=f"{group.spec} (relabelled)")


def seeded_group(name: str, seed: int) -> groups.FiniteGroup:
    base = dsl.build_group(name) if name == "C5" else catalog.catalog_group(name)
    return relabel(base, random.Random(f"{seed}:{name}") if seed else None)


def draw_primes(seed: int) -> tuple[int, ...]:
    if not seed:
        return PRIMES[:PRIME_COUNT]
    return tuple(sorted(random.Random(f"{seed}:primes").sample(PRIMES, PRIME_COUNT)))


# -- operations ---------------------------------------------------------------


def census_op(group: groups.FiniteGroup) -> dict:
    """The work of ``hgw table42`` for one G: enumerate, stable subgroups, onto
    check, verified correspondence rows, rendered table and per-class counts."""
    records = enumeration.enumerate_hgs(group)
    all_sets = frozenset(h.members for h in groups.subgroups(group))
    stables = {}
    onto = Counter()
    for record in records:
        stable = correspond.stable_subgroups(record)
        stables[record.key] = stable
        if correspond.psi_onto(record, stable, all_sets):
            onto[record.n_class.name] += 1
    rows = correspond.correspondence_rows(group, records, verify=True,
                                          stables_by_record=stables)
    table = report.correspondence_table_doc(rows, "md").render()
    classes = Counter(r.n_class.name for r in records)
    names = catalog.catalog_names(group.order)
    return {
        "table_sha256": sha256(table),
        "class_counts": [classes.get(m, 0) for m in names],
        "onto_counts": [onto.get(m, 0) for m in names],
    }


def count_formula_op(group: groups.FiniteGroup) -> dict:
    rows = enumeration.count_formula_report(group)
    return {"rows": rows, "identity_holds": all(r["lhs"] == r["rhs"] for r in rows)}


def oracle_op(group: groups.FiniteGroup) -> dict:
    oracle = enumeration.direct_enumerate_oracle(group)
    truth = {frozenset(p.images for p in g.elements) for g in oracle}
    records = enumeration.enumerate_hgs(group)
    ours = {frozenset(p.images for p in r.n_group.elements) for r in records}
    return {"structures": len(truth), "oracle_equal": ours == truth}


def model_op(p: int, n: int) -> dict:
    doc = report.model_report(p, n, MODEL_CHECKS, "md")
    return {
        "all_pass": all(row["status"] == "pass" for row in doc.rows),
        "rows": len(doc.rows),
        "table_sha256": sha256(doc.render()),
    }


def fixture_op() -> dict:
    result = fixture24.run_fixture()
    return {"passed": result.passed, "checks": len(result.rows)}


def build(workload: str, seed: int) -> list[Op]:
    """Generate the workload's inputs from ``seed``; returns its operations."""
    if workload == "census42":
        return [_group_op("census", name, seed, census_op) for name in CENSUS_GROUPS]
    if workload == "enum24":
        return [_group_op("count_formula", name, seed, count_formula_op)
                for name in ENUM_GROUPS]
    if workload == "verify_small":
        ops = []
        for p in draw_primes(seed):
            for n in MODEL_DEGREES:
                ops.append(Op(f"model_report(p={p}, n={n})", f"model_report(n={n})",
                              lambda p=p, n=n: model_op(p, n), may_hit_gap=n == 5))
        ops += [_group_op("oracle", name, seed, oracle_op, may_hit_gap=name == "C5")
                for name in ORACLE_GROUPS]
        ops.append(Op("run_fixture(paper24)", "run_fixture(paper24)", fixture_op))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _group_op(kind: str, name: str, seed: int, fn: Callable[[groups.FiniteGroup], dict],
              may_hit_gap: bool = False) -> Op:
    group = seeded_group(name, seed)
    return Op(f"{kind}({name}, seed={seed})", f"{kind}({name})", lambda: fn(group), may_hit_gap)
