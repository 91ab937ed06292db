"""Group-expression DSL.

Grammar (whitespace-insensitive except inside names):

    expr   := term (' x ' term)*                direct product, left associative
    term   := atom [':' atom]                   Cp:Cq semidirect product of cyclics
    atom   := C<k> | D<k> | A<k> | S<k> | Q8 | Dic<m> | '(' expr ')'
            | sdp(expr, C<k>, a [, idx])

``D<k>`` is dihedral of order 2k. ``Dic<m>`` is dicyclic of order 4m (Q8 is an
alias for Dic2). ``Cp:Cq`` is the semidirect product where the generator of Cq
acts as the least automorphism of Cp of order exactly q; for ``sdp(X, C<k>, a)``
the generator of C<k> acts as the automorphism of X with order ``a`` that comes
``idx``-th (default first) in the lexicographic ordering of image tuples.
Different same-order automorphism choices can give non-isomorphic products,
which is what ``idx`` disambiguates.

Every constructor refuses an order above ``GROUP_ORDER_CAP`` (256, the most
points a uint8 row can name) with GroupSpecError before it builds a table.
``sdp`` lists Aut(X) with the isomorphism search, so it also refuses, with
EnumerationOverflow, a base X whose search would try more generator images
than ``groups.ISO_SEARCH_BOUND``: C2^4 is listed, C2^5 is refused at once.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .errors import GroupSpecError
from .groups import FiniteGroup, automorphisms

_ATOM_RE = re.compile(r"([A-Za-z]+)(\d+)$")

GROUP_ORDER_CAP = 256  # the most points a uint8 row can name


def build_group(spec: str) -> FiniteGroup:
    """Build a FiniteGroup from a group expression; see the module docstring."""
    group = _Parser(spec).parse()
    group.spec = spec.strip()
    return group


# -- constructors ------------------------------------------------------------


def _check_order(order: int) -> None:
    """Refuse a group above GROUP_ORDER_CAP before its table, quadratic in the order, is built."""
    if order > GROUP_ORDER_CAP:
        raise GroupSpecError(
            f"group expressions capped at order {GROUP_ORDER_CAP}; this one has order {order}")


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupSpecError("cyclic order must be >= 1")
    _check_order(n)
    labels = ["e"] + [f"a^{i}" if i > 1 else "a" for i in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(labels, table, spec=f"C{n}")


def dihedral(k: int) -> FiniteGroup:
    """Dihedral group of order 2k: r of order k, s an involution, s r s = r^-1."""
    if k < 1:
        raise GroupSpecError("dihedral parameter must be >= 1")
    n = 2 * k
    _check_order(n)

    def idx(i: int, j: int) -> int:
        return j * k + i % k

    labels = [f"r^{i}" if j == 0 else f"r^{i}s" for j in (0, 1) for i in range(k)]
    labels[0] = "e"
    table = [[0] * n for _ in range(n)]
    for j1 in (0, 1):
        for i1 in range(k):
            for j2 in (0, 1):
                for i2 in range(k):
                    i = i1 + (i2 if j1 == 0 else -i2)
                    table[idx(i1, j1)][idx(i2, j2)] = idx(i % k, (j1 + j2) % 2)
    return FiniteGroup(labels, table, spec=f"D{k}")


def dicyclic(m: int) -> FiniteGroup:
    """Dicyclic group of order 4m: a^(2m) = 1, b^2 = a^m, b a b^-1 = a^-1."""
    if m < 1:
        raise GroupSpecError("dicyclic parameter must be >= 1")
    k = 2 * m
    n = 4 * m
    _check_order(n)

    def idx(i: int, j: int) -> int:
        return j * k + i % k

    labels = [f"a^{i}" if j == 0 else f"a^{i}b" for j in (0, 1) for i in range(k)]
    labels[0] = "e"
    table = [[0] * n for _ in range(n)]
    for j1 in (0, 1):
        for i1 in range(k):
            for j2 in (0, 1):
                for i2 in range(k):
                    i = i1 + (i2 if j1 == 0 else -i2)
                    j = j1 + j2
                    if j == 2:
                        i, j = i + m, 0
                    table[idx(i1, j1)][idx(i2, j2)] = idx(i % k, j)
    return FiniteGroup(labels, table, spec=f"Dic{m}")


def symmetric(k: int) -> FiniteGroup:
    if not 1 <= k <= 5:
        raise GroupSpecError("symmetric groups supported for 1 <= k <= 5")
    return _perm_table(list(itertools.permutations(range(k))), f"S{k}")


def alternating(k: int) -> FiniteGroup:
    if not 1 <= k <= 5:
        raise GroupSpecError("alternating groups supported for 1 <= k <= 5")
    evens = [p for p in itertools.permutations(range(k)) if _parity(p) == 0]
    return _perm_table(evens, f"A{k}")


def _parity(p) -> int:
    seen = [False] * len(p)
    parity = 0
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def _perm_table(perms, spec: str) -> FiniteGroup:
    perms = sorted(perms)  # identity tuple is lexicographically least
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(len(p)))] for q in perms] for p in perms]
    labels = ["".join(map(str, p)) for p in perms]
    return FiniteGroup(labels, table, spec=spec)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    _check_order(g1.order * g2.order)
    n2 = g2.order
    labels = [f"({a},{b})" for a in g1.elements for b in g2.elements]
    table = [
        [g1.mul(a1, a2) * n2 + g2.mul(b1, b2) for a2 in range(g1.order) for b2 in range(n2)]
        for a1 in range(g1.order)
        for b1 in range(n2)
    ]
    return FiniteGroup(labels, table, spec=f"({g1.spec}) x ({g2.spec})")


def semidirect_product(base: FiniteGroup, k: int, aut_order: int, aut_index: int = 0) -> FiniteGroup:
    """base x| C_k, the C_k generator acting as a chosen automorphism of order aut_order."""
    if aut_order < 1 or k < 1:
        raise GroupSpecError("sdp parameters must be positive")
    if k % aut_order != 0:
        raise GroupSpecError(
            f"sdp action of order {aut_order} does not define an automorphism action of C{k}")
    _check_order(base.order * k)
    auts = _of_order(automorphisms(base), aut_order)  # sorted by image tuple
    if aut_index >= len(auts):
        raise GroupSpecError(
            f"sdp action: no automorphism of order {aut_order} at index {aut_index} "
            f"({len(auts)} available)")
    phi = auts[aut_index].tolist()
    nb = base.order
    powers = [tuple(range(nb))]
    for _ in range(k - 1):
        powers.append(tuple(phi[x] for x in powers[-1]))

    def idx(x: int, c: int) -> int:
        return c * nb + x

    labels = [f"({base.elements[x]};t^{c})" for c in range(k) for x in range(nb)]
    table = [[0] * (nb * k) for _ in range(nb * k)]
    for c1 in range(k):
        for x1 in range(nb):
            row = table[idx(x1, c1)]
            twist = powers[c1]
            for c2 in range(k):
                for x2 in range(nb):
                    row[idx(x2, c2)] = idx(base.mul(x1, twist[x2]), (c1 + c2) % k)
    return FiniteGroup(labels, table, spec=f"sdp({base.spec}, C{k}, {aut_order}, {aut_index})")


def _of_order(rows: np.ndarray, order: int) -> np.ndarray:
    """The permutation rows of order exactly ``order``, in their given order."""
    identity = np.arange(rows.shape[1])
    keep = np.ones(len(rows), dtype=bool)
    power = rows
    for _ in range(order - 1):
        keep &= (power != identity).any(axis=1)
        power = np.take_along_axis(rows, power, axis=1)  # row a: a o a^s
    return rows[keep & (power == identity).all(axis=1)]


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        compact = text.replace(" ", "")
        tokens = re.findall(r"sdp|Dic\d+|[CDASQ]\d+|x|\d+|[():,]", compact)
        if "".join(tokens) != compact:
            raise GroupSpecError(f"cannot tokenize group expression {text!r}")
        return tokens

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise GroupSpecError(f"expected {expected or 'a token'}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> FiniteGroup:
        group = self.parse_expr()
        if self.peek() is not None:
            raise GroupSpecError(f"trailing tokens starting at {self.peek()!r}")
        return group

    def parse_expr(self) -> FiniteGroup:
        group = self.parse_term()
        while self.peek() == "x":
            self.take("x")
            group = direct_product(group, self.parse_term())
        return group

    def parse_term(self) -> FiniteGroup:
        left = self.parse_atom()
        if self.peek() == ":":
            self.take(":")
            right = self.parse_atom()
            if right.spec.startswith("C") and right.spec[1:].isdigit():
                q = int(right.spec[1:])
            else:
                raise GroupSpecError("right factor of ':' must be cyclic")
            return semidirect_product(left, q, q)
        return left

    def parse_atom(self) -> FiniteGroup:
        tok = self.peek()
        if tok is None:
            raise GroupSpecError("unexpected end of expression")
        if tok == "(":
            self.take("(")
            group = self.parse_expr()
            self.take(")")
            return group
        if tok == "sdp":
            return self.parse_sdp()
        self.take()
        m = _ATOM_RE.fullmatch(tok)
        if not m:
            raise GroupSpecError(f"unknown atom {tok!r}")
        kind, num = m.group(1), int(m.group(2))
        if kind == "C":
            return cyclic(num)
        if kind == "D":
            return dihedral(num)
        if kind == "S":
            return symmetric(num)
        if kind == "A":
            return alternating(num)
        if kind == "Dic":
            return dicyclic(num)
        if kind == "Q" and num == 8:
            return dicyclic(2)
        raise GroupSpecError(f"unknown atom {tok!r}")

    def parse_sdp(self) -> FiniteGroup:
        self.take("sdp")
        self.take("(")
        base = self.parse_expr()
        self.take(",")
        cyc_tok = self.take()
        m = _ATOM_RE.fullmatch(cyc_tok)
        if not m or m.group(1) != "C":
            raise GroupSpecError("second sdp argument must be C<k>")
        k = int(m.group(2))
        self.take(",")
        aut_order = int(self.take())
        aut_index = 0
        if self.peek() == ",":
            self.take(",")
            aut_index = int(self.take())
        self.take(")")
        return semidirect_product(base, k, aut_order, aut_index)
