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

``D<k>``, ``Dic<m>``, ``Cp:Cq`` and ``sdp`` share one product rule: each is a
base X extended by t, its elements the words x t^c (c < k) with
t x t^-1 = phi(x) and t^k = z. ``D<k>`` is C_k with phi = inversion and z = e,
``Dic<m>`` is C_2m with phi = inversion and z = a^m, and ``sdp`` (so ``Cp:Cq``)
the chosen automorphism with z = e. ``_extension`` builds all four tables with
one gather on X's rows; ``S<k>``/``A<k>`` are ``groups.cayley_table`` of their
permutation rows, and direct products a gather on both factors' rows.

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
from .groups import FiniteGroup, automorphisms, cayley_table

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
    points = np.arange(n)
    return FiniteGroup(labels, np.add.outer(points, points) % n, spec=f"C{n}")


def dihedral(k: int) -> FiniteGroup:
    """Dihedral group of order 2k: r of order k, s an involution, s r s = r^-1."""
    if k < 1:
        raise GroupSpecError("dihedral parameter must be >= 1")
    _check_order(2 * k)
    base = cyclic(k)
    labels = [f"r^{i}" if j == 0 else f"r^{i}s" for j in (0, 1) for i in range(k)]
    labels[0] = "e"
    return _extension(base, 2, base.inverse_table, 0, labels, f"D{k}")


def dicyclic(m: int) -> FiniteGroup:
    """Dicyclic group of order 4m: a^(2m) = 1, b^2 = a^m, b a b^-1 = a^-1."""
    if m < 1:
        raise GroupSpecError("dicyclic parameter must be >= 1")
    _check_order(4 * m)
    base = cyclic(2 * m)
    labels = [f"a^{i}" if j == 0 else f"a^{i}b" for j in (0, 1) for i in range(2 * m)]
    labels[0] = "e"
    return _extension(base, 2, base.inverse_table, m, labels, f"Dic{m}")


def symmetric(k: int) -> FiniteGroup:
    if not 1 <= k <= 5:
        raise GroupSpecError("symmetric groups supported for 1 <= k <= 5")
    return _perm_table(_permutation_rows(k), f"S{k}")


def alternating(k: int) -> FiniteGroup:
    if not 1 <= k <= 5:
        raise GroupSpecError("alternating groups supported for 1 <= k <= 5")
    rows = _permutation_rows(k)
    i, j = np.triu_indices(k, 1)
    inversions = (rows[:, i] > rows[:, j]).sum(axis=1)  # even permutations have an even count
    return _perm_table(rows[inversions % 2 == 0], f"A{k}")


def _permutation_rows(k: int) -> np.ndarray:
    """Sym(k) as uint8 rows in lexicographic, that is sorted, order."""
    return np.array(list(itertools.permutations(range(k))), dtype=np.uint8)


def _perm_table(rows: np.ndarray, spec: str) -> FiniteGroup:
    labels = ["".join(map(str, p)) for p in rows.tolist()]  # identity row first: it is least
    return FiniteGroup(labels, cayley_table(rows), spec=spec)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    _check_order(g1.order * g2.order)
    n2 = g2.order
    labels = [f"({a},{b})" for a in g1.elements for b in g2.elements]
    # [a1, b1, a2, b2]: (a1 a2, b1 b2) at index (a1 a2) * |g2| + b1 b2
    table = g1.rows.astype(np.intp)[:, None, :, None] * n2 + g2.rows[None, :, None, :]
    return FiniteGroup(labels, table.reshape(g1.order * n2, -1),
                       spec=f"({g1.spec}) x ({g2.spec})")


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
    labels = [f"({base.elements[x]};t^{c})" for c in range(k) for x in range(base.order)]
    return _extension(base, k, auts[aut_index], 0, labels,
                      f"sdp({base.spec}, C{k}, {aut_order}, {aut_index})")


def _extension(base: FiniteGroup, k: int, phi, z: int, labels: list[str],
               spec: str) -> FiniteGroup:
    """The group of words x t^c (x in base, c < k) with t x t^-1 = phi(x) and t^k = z.

    ``phi`` is an automorphism of ``base`` as an image sequence, and ``z`` an
    element that phi fixes, with phi^k conjugation by z. Word x t^c has index
    c |base| + x, and (x1 t^c1)(x2 t^c2) = x1 phi^c1(x2) t^(c1 + c2), where
    t^(c1 + c2) is z t^(c1 + c2 - k) once c1 + c2 reaches k: one gather on
    base's rows gives every product.
    """
    nb = base.order
    phi = np.asarray(phi, dtype=np.intp)
    powers = [np.arange(nb)]  # powers[c] is phi^c
    for _ in range(k - 1):
        powers.append(phi[powers[-1]])
    twisted = base.rows[:, np.array(powers)].transpose(1, 0, 2)  # [c1, x1, x2]: x1 phi^c1(x2)
    exponent = np.add.outer(np.arange(k), np.arange(k))  # [c1, c2]: c1 + c2
    wrapped = base.rows[:, z][twisted]  # x1 phi^c1(x2) z
    x = np.where((exponent >= k)[:, None, :, None], wrapped[:, :, None, :], twisted[:, :, None, :])
    table = (exponent % k)[:, None, :, None] * nb + x  # [c1, x1, c2, x2]
    return FiniteGroup(labels, table.reshape(k * nb, k * nb), spec=spec)


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
