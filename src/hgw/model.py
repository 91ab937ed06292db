"""Explicit finite-field model: K = F_{p^n} over k = F_p, with cyclic Galois group.

All descent statements are checked by exact linear algebra over F_p: fixed
rings (K[V])^{lambda(G)} as nullspaces, actions as matrices, fixed fields as
solution spaces, and the induced short exact sequence by ranks and spans.
Field elements are coefficient tuples in the power basis 1, x, .., x^(n-1).
A support group V (N, P or the block image of N) is its sorted uint8 image
rows, as the enumeration and the correspondence hold them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import fplin
from .correspond import block_actions
from .dsl import build_group
from .errors import GroupSpecError, TheoremViolation
from .groups import SubgroupHandle

KElem = tuple[int, ...]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class ExtensionModel:
    """Arithmetic in F_{p^n} with G generated by the Frobenius x -> x^p."""

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.modulus = modulus  # monic, coefficient i of x^i, length n+1
        self._red_rows = self._reduction_rows()
        self.group = build_group(f"C{n}")  # index j acts as Frobenius^j
        self.frobenius_matrices = self._frobenius_matrices()

    # -- field arithmetic --

    @property
    def zero(self) -> KElem:
        return (0,) * self.n

    @property
    def one(self) -> KElem:
        return (1,) + (0,) * (self.n - 1)

    def scalar(self, c: int) -> KElem:
        return (c % self.p,) + (0,) * (self.n - 1)

    def add(self, a: KElem, b: KElem) -> KElem:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a: KElem, b: KElem) -> KElem:
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a: KElem, b: KElem) -> KElem:
        p, n = self.p, self.n
        conv = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] = (conv[i + j] + x * y) % p
        out = conv[:n]
        for k in range(n, 2 * n - 1):
            c = conv[k]
            if c:
                row = self._red_rows[k - n]
                out = [(o + c * r) % p for o, r in zip(out, row)]
        return tuple(out)

    def smul(self, c: int, a: KElem) -> KElem:
        return tuple((c * x) % self.p for x in a)

    def kpow(self, a: KElem, e: int) -> KElem:
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def apply(self, j: int, a: KElem) -> KElem:
        """Apply the Galois group element j (= Frobenius^j)."""
        return tuple(int(v) % self.p for v in self.frobenius_matrices[j] @ np.array(a))

    def mult_matrix(self, c: KElem) -> np.ndarray:
        """Matrix of y -> c*y in the power basis (columns are c * x^i)."""
        cols = [list(c)]
        for _ in range(self.n - 1):
            cols.append(self._times_x(cols[-1]))
        return np.array(cols, dtype=np.int64).T % self.p

    def _times_x(self, v: Sequence[int]) -> list[int]:
        shifted = [0] + list(v[:-1])
        top = v[-1]
        if top:
            shifted = [(s + top * r) % self.p for s, r in zip(shifted, self._red_rows[0])]
        return shifted

    def _reduction_rows(self) -> list[tuple[int, ...]]:
        # row k: x^(n+k) mod modulus, for k = 0 .. n-2
        p, n = self.p, self.n
        first = tuple((-c) % p for c in self.modulus[:n])
        rows = [first]
        for _ in range(n - 2):
            prev = rows[-1]
            shifted = [0] + list(prev[:-1])
            top = prev[-1]
            if top:
                shifted = [(s + top * r) % p for s, r in zip(shifted, first)]
            rows.append(tuple(shifted))
        return rows

    def _frobenius_matrices(self) -> list[np.ndarray]:
        p, n = self.p, self.n
        xp = self.kpow((0, 1) + (0,) * (n - 2) if n > 1 else (0,), p)
        cols = [self.one]
        for _ in range(n - 1):
            cols.append(self.mul(cols[-1], xp))
        frob = np.array(cols, dtype=np.int64).T % p
        mats = [np.eye(n, dtype=np.int64)]
        for _ in range(n - 1):
            mats.append((frob @ mats[-1]) % p)
        if not np.array_equal((frob @ mats[-1]) % p, mats[0]):
            raise TheoremViolation("Frobenius does not have order n on K")
        for d in range(1, n):
            if n % d == 0 and np.array_equal(mats[d], mats[0]):
                raise TheoremViolation("Frobenius has order < n; modulus not irreducible?")
        return mats

    def __repr__(self) -> str:
        return f"ExtensionModel(p={self.p}, n={self.n})"


def _irreducible(p: int, coeffs: tuple[int, ...], n: int) -> bool:
    """Irreducibility over F_p: x^(p^n) = x mod f and gcd(x^(p^(n/q)) - x, f) = 1."""

    def polmul(a, b):
        conv = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] = (conv[i + j] + x * y) % p
        # reduce by monic f
        while len(conv) > n:
            c = conv.pop()
            if c:
                d = len(conv) - n
                for i in range(n):
                    conv[d + i] = (conv[d + i] - c * coeffs[i]) % p
        return conv + [0] * (n - len(conv))

    def polpow_x(e: int) -> list[int]:
        result = [1] + [0] * (n - 1)
        base = ([0, 1] + [0] * (n - 2))[:n] if n > 1 else [0]
        while e:
            if e & 1:
                result = polmul(result, base)
            base = polmul(base, base)
            e >>= 1
        return result

    def polgcd(a, b):
        a = [c % p for c in a]
        b = [c % p for c in b]

        def deg(v):
            d = len(v) - 1
            while d >= 0 and v[d] == 0:
                d -= 1
            return d

        while deg(b) >= 0:
            da, db = deg(a), deg(b)
            if da < db:
                a, b = b, a
                continue
            inv = pow(b[deg(b)], p - 2, p)
            c = (a[da] * inv) % p
            shift = da - db
            for i in range(db + 1):
                a[shift + i] = (a[shift + i] - c * b[i]) % p
            if deg(a) < deg(b):
                a, b = b, a
        return a

    if n == 1:
        return True
    xpn = polpow_x(p ** n)
    x_itself = ([0, 1] + [0] * (n - 2))[:n]
    if xpn != x_itself:
        return False
    for q in {d for d in range(2, n + 1) if n % d == 0 and _is_prime(d)}:
        xpk = polpow_x(p ** (n // q))
        diff = [(a - b) % p for a, b in zip(xpk, x_itself)]
        g = polgcd(list(coeffs) + [1], diff)
        if any(g[1:]) or not any(g):
            return False
    return True


def make_extension(p: int, n: int) -> ExtensionModel:
    """F_{p^n}/F_p with the lexicographically least monic irreducible modulus."""
    if not _is_prime(p):
        raise GroupSpecError(f"{p} is not prime")
    if not 1 <= n <= 8:
        raise GroupSpecError("extension degree must be between 1 and 8")
    if p <= n:
        raise GroupSpecError("need p > n so that power-sum arguments apply")
    for k in range(p ** n):
        coeffs = tuple((k // p ** i) % p for i in range(n))
        if _irreducible(p, coeffs, n):
            return ExtensionModel(p, n, coeffs + (1,))
    raise GroupSpecError("no irreducible modulus found")  # pragma: no cover


# -- Hopf elements and fixed rings -------------------------------------------


@dataclass(frozen=True)
class HopfElement:
    """h = sum over the support group of c_v . v, coefficients in K."""

    model: ExtensionModel
    coeffs: tuple[KElem, ...]  # aligned with the support's rows

    def augmentation(self) -> KElem:
        total = self.model.zero
        for c in self.coeffs:
            total = self.model.add(total, c)
        return total

    def counit_scalar(self) -> int:
        eps = self.augmentation()
        if any(eps[1:]):
            raise TheoremViolation("augmentation of a fixed-ring element is not in F_p")
        return eps[0]


@dataclass(frozen=True)
class FixedRing:
    """(K[V])^{lambda(G)}: basis of coefficient solutions for a support group V."""

    model: ExtensionModel
    rows: np.ndarray  # the support V, sorted
    basis: tuple[HopfElement, ...]
    constraint_matrix: np.ndarray = field(repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def coeff_vectors(self) -> np.ndarray:
        """Basis as flat vectors over F_p, coordinates (element, power-basis)."""
        return np.array(
            [[x for c in h.coeffs for x in c] for h in self.basis], dtype=np.int64)

    def contains_vector(self, vec: np.ndarray) -> bool:
        return bool(np.all((self.constraint_matrix @ vec) % self.model.p == 0))


def _row_index(rows: np.ndarray) -> dict[bytes, int]:
    return {row.tobytes(): i for i, row in enumerate(rows)}


def _conjugation_index(support_rows: np.ndarray, gamma: np.ndarray) -> list[int]:
    """Entry i is the index of gamma v_i gamma^-1 among the support rows."""
    index = _row_index(support_rows)
    conj = gamma[support_rows[:, np.argsort(gamma)]]
    out = [index.get(row.tobytes()) for row in conj]
    if None in out:
        raise TheoremViolation("conjugator does not normalize the support group")
    return out


def fixed_ring_basis(model: ExtensionModel, support_rows: np.ndarray,
                     gbar_rows: np.ndarray | None = None) -> FixedRing:
    """Solve gamma(c_v) = c_{gamma v gamma^-1} over generators gamma of G.

    ``gbar_rows`` gives the action of each G element on the support domain
    (the left-regular action by default; block images for quotient supports).
    Asserts dim_k = |V|.
    """
    n, p = model.n, model.p
    group = model.group
    if gbar_rows is None:
        gbar_rows = np.array(group.table, dtype=np.uint8)
    size = len(support_rows)
    generators = [j for j in range(group.order) if group.element_order(j) == group.order]
    gens = generators[:1] if generators else []
    if group.order > 1 and not gens:  # non-cyclic G never occurs here
        raise GroupSpecError("model group must be cyclic")
    rows = []
    for j in gens:
        conj = _conjugation_index(support_rows, gbar_rows[j])
        frob = model.frobenius_matrices[j]
        for vi in range(size):
            block = np.zeros((n, size * n), dtype=np.int64)
            block[:, vi * n:(vi + 1) * n] = frob
            block[:, conj[vi] * n:(conj[vi] + 1) * n] -= np.eye(n, dtype=np.int64)
            rows.append(block)
    if rows:
        constraints = np.vstack(rows) % p
    else:
        constraints = np.zeros((0, size * n), dtype=np.int64)
    solutions = fplin.nullspace(constraints, p)
    if solutions.shape[0] != size:
        raise TheoremViolation(
            f"fixed ring dimension {solutions.shape[0]} != |V| = {size}")
    basis = tuple(
        HopfElement(model, tuple(tuple(int(x) for x in vec[i * n:(i + 1) * n])
                                 for i in range(size)))
        for vec in solutions
    )
    return FixedRing(model, support_rows, basis, constraints)


def embed_k(model: ExtensionModel, x: KElem) -> tuple[KElem, ...]:
    """The vector (g(x)) over g in G; the image of K inside Map(G, K)."""
    return tuple(model.apply(j, x) for j in range(model.group.order))


def act(h: HopfElement, x: KElem, ring: FixedRing) -> KElem:
    """Action of h on x, computed two ways and cross-asserted.

    (a) push embed(x) through the basis action v(e_g) = e_{v(g)}, check the
    result is again an embedded element, read the identity component;
    (b) the closed formula sum_v c_v . (v^-1(0))(x).
    """
    model = ring.model
    group = model.group
    v_rows = ring.rows.tolist()
    embedded = embed_k(model, x)
    components = [model.zero] * group.order
    for c, v in zip(h.coeffs, v_rows):
        for g in range(group.order):
            t = v[g]
            components[t] = model.add(components[t], model.mul(c, embedded[g]))
    y_slice = components[0]
    for t in range(group.order):
        if components[t] != model.apply(t, y_slice):
            raise TheoremViolation("action did not land in the embedded copy of K")
    y_formula = model.zero
    for c, v in zip(h.coeffs, v_rows):
        g = v.index(0)
        y_formula = model.add(y_formula, model.mul(c, model.apply(g, x)))
    if y_slice != y_formula:
        raise TheoremViolation("slice action and closed formula disagree")
    return y_slice


def act_matrix(model: ExtensionModel, h: HopfElement, support_rows: np.ndarray) -> np.ndarray:
    """Matrix of x -> act(h, x) over F_p: sum_v Mult(c_v) . Frob^{v^-1(0)}."""
    n, p = model.n, model.p
    out = np.zeros((n, n), dtype=np.int64)
    for c, g in zip(h.coeffs, np.argmin(support_rows, axis=1).tolist()):  # v^-1(0)
        out = (out + model.mult_matrix(c) @ model.frobenius_matrices[g]) % p
    return out


@dataclass(frozen=True)
class FixedFieldResult:
    """K^{H_P} as an F_p-subspace of K, with its Galois group J = Psi(P)."""

    model: ExtensionModel
    basis: np.ndarray  # RREF rows
    j_points: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]


def fixed_subfield_of_group(model: ExtensionModel, points: Sequence[int]) -> np.ndarray:
    """K^J for a set of group elements J: joint fixed space of their matrices."""
    n, p = model.n, model.p
    stacked = np.vstack([
        (model.frobenius_matrices[j] - np.eye(n, dtype=np.int64)) % p for j in points
    ]) if points else np.zeros((0, n), dtype=np.int64)
    return fplin.rref(fplin.nullspace(stacked, p), p)[0]


def fixed_field(model: ExtensionModel, ring: FixedRing) -> FixedFieldResult:
    """Solution space of act(h_i, x) = eps(h_i) x over the basis of H_P.

    Asserts: dimension |G|/|P|, multiplicative closure, and exact equality
    with K^J for J the identity orbit of P.
    """
    n, p = model.n, model.p
    p_rows = ring.rows
    systems = []
    for h in ring.basis:
        eps = h.counit_scalar()
        mat = (act_matrix(model, h, p_rows) - eps * np.eye(n, dtype=np.int64)) % p
        systems.append(mat)
    space = fplin.nullspace(np.vstack(systems), p)
    space = fplin.rref(space, p)[0]
    expected_dim = model.group.order // len(p_rows)
    if space.shape[0] != expected_dim:
        raise TheoremViolation(
            f"fixed field dimension {space.shape[0]} != [G:P] = {expected_dim}")
    for i in range(space.shape[0]):
        for j in range(space.shape[0]):
            product = model.mul(tuple(space[i]), tuple(space[j]))
            if not fplin.row_space_contains(space, np.array(product), p):
                raise TheoremViolation("fixed field is not multiplicatively closed")
    j_points = tuple(sorted(set(p_rows[:, 0].tolist())))
    k_j = fixed_subfield_of_group(model, j_points)
    if not fplin.row_spaces_equal(space, k_j, p):
        raise TheoremViolation("K^{H_P} differs from K^J for J = Psi(P)")
    return FixedFieldResult(model, space, j_points)


def hopf_galois_rank(model: ExtensionModel, ring: FixedRing) -> bool:
    """True iff x (tensor) h -> x . act(h, -) spans all of End_k(K)."""
    n, p = model.n, model.p
    flat = []
    for h in ring.basis:
        base_action = act_matrix(model, h, ring.rows)
        for i in range(n):
            xi = tuple(1 if j == i else 0 for j in range(n))
            flat.append(((model.mult_matrix(xi) @ base_action) % p).reshape(-1))
    return fplin.rank(np.array(flat, dtype=np.int64), p) == n * n


def fixedsum_check(model: ExtensionModel, sigma_points: Sequence[int],
                   field_result: FixedFieldResult) -> bool:
    """One instance of the power-sum implication (needs p > |G|).

    If sum over S of sigma(x) = |S| x for all x in the subfield, then S must
    lie inside its Galois group J; returns whether that implication holds.
    """
    if model.p <= model.group.order:
        raise GroupSpecError("fixedsum check requires p > |G|")
    n, p = model.n, model.p
    total = np.zeros((n, n), dtype=np.int64)
    for j in sigma_points:
        total = (total + model.frobenius_matrices[j]) % p
    basis = field_result.basis
    hypothesis = all(
        np.array_equal((total @ vec) % p, (len(sigma_points) * vec) % p) for vec in basis
    )
    conclusion = set(sigma_points) <= set(field_result.j_points)
    return (not hypothesis) or conclusion


# -- short exact sequence -------------------------------------------------------


def exact_sequence_check(model: ExtensionModel, n_rows: np.ndarray,
                         p_rows: np.ndarray) -> dict:
    """Verify 1 -> H_P -> H_N -> H_{N/P} -> 1 by exact linear algebra.

    Checks: (i) H_P embeds in H_N; (ii) the coset projection maps H_N onto
    H_{N/P}; (iii) its kernel has dimension |N| - [N:P]; (iv) the kernel
    equals H_N . H_P^+; (v) dim H_P = |P| and dim H_{N/P} = [N:P].
    Raises TheoremViolation on any failure.
    """
    nfld, p = model.n, model.p
    group = model.group
    h_n = fixed_ring_basis(model, n_rows)
    h_p = fixed_ring_basis(model, p_rows)

    # (i) zero-extend H_P coefficients to N's support and check membership
    n_index = _row_index(n_rows)
    size_n = len(n_rows)
    p_in_n = [n_index.get(q.tobytes()) for q in p_rows]
    if None in p_in_n:
        raise TheoremViolation("P is not contained in N")
    for h in h_p.basis:
        vec = np.zeros(size_n * nfld, dtype=np.int64)
        for c, qi in zip(h.coeffs, p_in_n):
            vec[qi * nfld:(qi + 1) * nfld] = c
        if not h_n.contains_vector(vec):
            raise TheoremViolation("H_P does not embed into H_N")

    # block data: left cosets of J = Psi(P), with N and lambda(G) acting
    j_points = tuple(sorted(set(p_rows[:, 0].tolist())))
    actions = block_actions(n_rows, SubgroupHandle(group, j_points))
    nbar, nbar_index = np.unique(actions.nbar_of, axis=0, return_inverse=True)
    m = actions.space.block_count
    if len(nbar) != size_n // len(p_rows):
        raise TheoremViolation("block image of N does not have order [N:P]")
    h_quot = fixed_ring_basis(model, nbar, gbar_rows=actions.gbar_of)

    # (ii) projection surjects onto H_{N/P}
    proj = np.zeros((m * nfld, size_n * nfld), dtype=np.int64)
    for vi, bi in enumerate(nbar_index.reshape(-1).tolist()):
        proj[bi * nfld:(bi + 1) * nfld, vi * nfld:(vi + 1) * nfld] = np.eye(nfld, dtype=np.int64)
    hn_vectors = h_n.coeff_vectors()
    images = (hn_vectors @ proj.T) % p
    for vec in images:
        if not h_quot.contains_vector(vec):
            raise TheoremViolation("projection of H_N leaves H_{N/P}")
    image_rank = fplin.rank(images, p)
    if image_rank != m:
        raise TheoremViolation(f"projection image rank {image_rank} != [N:P] = {m}")

    # (iii) kernel dimension
    kernel_dim = h_n.dimension - image_rank
    if kernel_dim != size_n - m:
        raise TheoremViolation("kernel dimension is not |N| - [N:P]")

    # (iv) kernel equals H_N . H_P^+
    eps_rows = np.zeros((nfld, h_p.dimension), dtype=np.int64)
    for col, h in enumerate(h_p.basis):
        eps = h.augmentation()
        for i in range(nfld):
            eps_rows[i, col] = eps[i]
    plus_coords = fplin.nullspace(eps_rows, p)
    if plus_coords.shape[0] != h_p.dimension - 1:
        raise TheoremViolation("augmentation ideal of H_P has wrong dimension")
    hp_plus = [
        _combine(model, h_p.basis, coords) for coords in plus_coords
    ]
    # vq_index[v][q] is the index of v o q in N
    vq_index = [[n_index[row.tobytes()] for row in vq] for vq in n_rows[:, p_rows]]
    products = []
    for h in h_n.basis:
        for hp in hp_plus:
            products.append(_group_ring_product(model, h, hp, vq_index))
    if products:
        prod_mat = np.array(products, dtype=np.int64)
        for vec in prod_mat:
            if not h_n.contains_vector(vec):
                raise TheoremViolation("a product H_N . H_P^+ left H_N")
            if np.any((proj @ vec) % p):
                raise TheoremViolation("a product H_N . H_P^+ is not in the kernel")
        span_rank = fplin.rank(prod_mat, p)
    else:
        span_rank = 0
    if span_rank != kernel_dim:
        raise TheoremViolation(
            f"H_N . H_P^+ has rank {span_rank}, kernel has dimension {kernel_dim}")

    return {
        "dim_h_n": h_n.dimension,
        "dim_h_p": h_p.dimension,
        "dim_h_quot": h_quot.dimension,
        "blocks": m,
        "kernel_dim": kernel_dim,
        "product_span": span_rank,
    }


def _combine(model: ExtensionModel, basis: Sequence[HopfElement], coords) -> HopfElement:
    size = len(basis[0].coeffs)
    out = [model.zero] * size
    for w, h in zip(coords, basis):
        w = int(w) % model.p
        if w:
            for i, c in enumerate(h.coeffs):
                out[i] = model.add(out[i], model.smul(w, c))
    return HopfElement(model, tuple(out))


def _group_ring_product(model: ExtensionModel, h_left: HopfElement, h_right: HopfElement,
                        vq_index: list[list[int]]) -> np.ndarray:
    """(sum c_v v)(sum d_q q) in K[N], flattened over F_p coordinates."""
    nfld = model.n
    out = [model.zero] * len(vq_index)
    for c, v_times in zip(h_left.coeffs, vq_index):
        if c == model.zero:
            continue
        for d, w in zip(h_right.coeffs, v_times):
            if d == model.zero:
                continue
            out[w] = model.add(out[w], model.mul(c, d))
    vec = np.zeros(len(vq_index) * nfld, dtype=np.int64)
    for i, c in enumerate(out):
        vec[i * nfld:(i + 1) * nfld] = c
    return vec
