"""Explicit finite-field model: K = F_{p^n} over k = F_p, with cyclic Galois group.

All descent statements are checked by exact linear algebra over F_p: fixed
rings (K[V])^{lambda(G)} by Galois descent on the lambda(G)-orbits (c_v in K^S
for the stabiliser S of v, and c_{gvg^-1} = g(c_v)), actions as matrices,
fixed fields as solution spaces, and the induced short exact sequence by ranks
and spans. J = Psi(P), its cosets and lambda(G)'s block images on them are
read from J's ``PsiResult`` (``correspond.psi_of_rows``), as in the census. G
is read only through its rows and frobenius_matrices; only ExtensionModel
knows that G is cyclic, and it checks that j -> frobenius_matrices[j] is a
homomorphism on G's rows, so that ring membership is tested on G's
generator, the Frobenius, alone. The models of one degree share one C_n, and
with it each J's ``PsiResult``; each model solves each K^S once, builds and
verifies each ring once (``ExtensionModel.ring_of``, by support and action
rows) and solves each K^{H_P} once (``ExtensionModel.field_of``, by P's
rows), so a stable P that several N share, or a quotient equal to a ring
already built, is read back. The power-sum implication is decided per
subfield for a whole stack of subsets of G.
A field element is its F_p coefficient vector in the power basis 1, x, ..,
x^(n-1), and every field operation is a matrix: multiplication by c is
sum_i c_i x_powers[i], where x_powers[i] multiplies by x^i, and Frobenius^j
is frobenius_matrices[j]. A stack of elements goes through one einsum or matmul,
and every int64 sum of products stays below (n + 1)(p - 1)^2.
A support group V (N, P or the block image of N) is its sorted uint8 image
rows, as the enumeration and the correspondence hold them. An element
sum_v c_v . v of K[V] is its (|V|, n) coefficient array, and a fixed ring is
one (dimension, |V|, n) array of basis coefficients; every check reads
the whole stack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import fplin
from .correspond import block_actions, psi_of_rows
from .dsl import build_group
from .errors import GroupSpecError, TheoremViolation
from .groups import FiniteGroup
from .regsearch import conjugate, row_indices


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _prime_divisors(n: int) -> list[int]:
    """The primes q | n, the ones Rabin's test and Serret's condition both read."""
    return [d for d in range(2, n + 1) if n % d == 0 and _is_prime(d)]


def _binomial_can_be_irreducible(p: int, n: int) -> bool:
    """Whether some x^n + c over F_p is irreducible (Serret's theorem).

    By Lidl-Niederreiter, Finite Fields, Thm 3.75, x^n - a is irreducible iff
    every prime q | n divides the order of a but not (p - 1) / ord(a), and
    p = 1 (mod 4) when 4 | n. A primitive root a meets the first clause exactly
    when every q divides p - 1, and no a can meet it otherwise; c = 0 gives
    x^n, which is reducible for n >= 2.
    """
    return all((p - 1) % q == 0 for q in _prime_divisors(n)) and (n % 4 != 0 or p % 4 == 1)


def _matpow(mat: np.ndarray, e: int, p: int) -> np.ndarray:
    result = np.eye(len(mat), dtype=np.int64)
    while e:
        if e & 1:
            result = result @ mat % p
        mat = mat @ mat % p
        e >>= 1
    return result


def _field_matrices(p: int, modulus: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The matrices of y -> x^i y (i < n) and of y -> y^p in F_p[x]/(f), f monic.

    x_powers are the powers of f's companion matrix; column i of the Frobenius
    matrix is x^(p i) = (x^p)^i. Neither needs f to be irreducible.
    """
    n = len(modulus) - 1
    companion = np.eye(n, k=-1, dtype=np.int64)
    companion[:, -1] = -np.array(modulus[:n], dtype=np.int64) % p
    x_to_p = _matpow(companion, p, p)
    x_powers = [np.eye(n, dtype=np.int64)]
    frob_cols = [x_powers[0][:, 0]]
    for _ in range(n - 1):
        x_powers.append(companion @ x_powers[-1] % p)
        frob_cols.append(x_to_p @ frob_cols[-1] % p)
    return np.array(x_powers), np.array(frob_cols).T


@functools.cache
def _cyclic_group(n: int) -> FiniteGroup:
    """C_n, built once per degree for every model of that degree."""
    return build_group(f"C{n}")


class ExtensionModel:
    """Arithmetic in F_{p^n} with G generated by the Frobenius x -> x^p."""

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.modulus = modulus  # monic, coefficient i of x^i, length n+1
        self.x_powers, frobenius = _field_matrices(p, modulus)
        self.group = _cyclic_group(n)  # index j acts as Frobenius^j
        self.frobenius_matrices = self._frobenius_powers(frobenius)
        # with j -> Frobenius^j a homomorphism on G, the Frobenius generates G, and a
        # coefficient array fixed by the Frobenius is fixed by all of G
        products = np.einsum("aij,bjk->abik", self.frobenius_matrices, self.frobenius_matrices)
        if not np.array_equal(products % p, self.frobenius_matrices[self.group.rows]):
            raise TheoremViolation("j -> Frobenius^j is not a homomorphism on G")
        self.generators = np.array([1 % n])  # the Frobenius (the identity when n = 1)
        self._subfields: dict[tuple[int, ...], np.ndarray] = {}  # K^J by J's sorted points
        self._rings: dict[tuple[bytes, bytes], FixedRing] = {}  # by support and action rows
        self._fields: dict[bytes, FixedFieldResult] = {}  # K^{H_P} by P's rows

    def ring_of(self, support_rows: np.ndarray, gbar_rows: np.ndarray | None = None) -> FixedRing:
        """``fixed_ring_basis(self, support_rows, gbar_rows)``, built once per model."""
        action = self.group.rows if gbar_rows is None else gbar_rows
        key = (support_rows.tobytes(), action.tobytes())  # |G| action rows fix the row width
        if key not in self._rings:
            self._rings[key] = fixed_ring_basis(self, support_rows, gbar_rows)
        return self._rings[key]

    def field_of(self, p_rows: np.ndarray) -> FixedFieldResult:
        """``fixed_field`` of H_P = ``ring_of(p_rows)``, solved and verified once per model."""
        key = p_rows.tobytes()
        if key not in self._fields:
            self._fields[key] = fixed_field(self.ring_of(p_rows))
        return self._fields[key]

    def mult_matrix(self, c) -> np.ndarray:
        """Matrix of y -> c*y (columns are c * x^i); a stack of elements gives a stack."""
        return np.tensordot(np.asarray(c, dtype=np.int64), self.x_powers, 1) % self.p

    def _frobenius_powers(self, frob: np.ndarray) -> np.ndarray:
        p, n = self.p, self.n
        mats = [np.eye(n, dtype=np.int64)]
        for _ in range(n - 1):
            mats.append((frob @ mats[-1]) % p)
        if not np.array_equal((frob @ mats[-1]) % p, mats[0]):
            raise TheoremViolation("Frobenius does not have order n on K")
        for d in range(1, n):
            if n % d == 0 and np.array_equal(mats[d], mats[0]):
                raise TheoremViolation("Frobenius has order < n; modulus not irreducible?")
        return np.array(mats)

    def __repr__(self) -> str:
        return f"ExtensionModel(p={self.p}, n={self.n})"


def _irreducible(p: int, coeffs: tuple[int, ...], n: int) -> bool:
    """Rabin's test for f = x^n + sum coeffs_i x^i over F_p, on f's field matrices.

    Frobenius^n fixes x (x^(p^n) = x mod f), and for each prime q | n the
    multiplication matrix of Frobenius^(n/q)(x) - x has rank n, that is,
    gcd(x^(p^(n/q)) - x, f) = 1.
    """
    if n == 1:
        return True
    x_powers, frob = _field_matrices(p, tuple(coeffs) + (1,))
    x = x_powers[1][:, 0]
    if np.any((_matpow(frob, n, p) @ x - x) % p):
        return False
    for q in _prime_divisors(n):
        diff = (_matpow(frob, n // q, p) @ x - x) % p
        if fplin.rank(np.tensordot(diff, x_powers, 1) % p, p) < n:
            return False
    return True


def make_extension(p: int, n: int) -> ExtensionModel:
    """F_{p^n}/F_p with the lexicographically least monic irreducible modulus.

    The cheap guards run first, so a p too large for int64 is never trial-divided.
    Candidate k is x^n + sum_i c_i x^i with c_i the base-p digits of k, so the
    first p candidates are the binomials x^n + c. When Serret's theorem rules
    them all out (``_binomial_can_be_irreducible``), the search starts at
    x^n + x; every candidate still tested is certified by Rabin's test, and the
    modulus chosen is the one a search from k = 0 would choose.
    """
    if not 1 <= n <= 8:
        raise GroupSpecError("extension degree must be between 1 and 8")
    if p <= n:
        raise GroupSpecError("need p > n so that power-sum arguments apply")
    if (n + 1) * (p - 1) ** 2 >= 2 ** 63:  # see the module docstring
        raise GroupSpecError(f"p = {p} is too large for exact int64 arithmetic at n = {n}")
    if not _is_prime(p):
        raise GroupSpecError(f"{p} is not prime")
    for k in range(0 if _binomial_can_be_irreducible(p, n) else p, p ** n):
        coeffs = tuple((k // p ** i) % p for i in range(n))
        if _irreducible(p, coeffs, n):
            return ExtensionModel(p, n, coeffs + (1,))
    raise GroupSpecError("no irreducible modulus found")  # pragma: no cover


# -- fixed rings ------------------------------------------------------------------


@dataclass(frozen=True)
class FixedRing:
    """(K[V])^{lambda(G)} for a support group V, as a basis of coefficient arrays.

    An element lies in the ring iff g(c_v) = c_{g v g^-1} for every g in G:
    the model's ``frobenius_matrices[g]`` is g's matrix on K, and ``conj[g, v]``
    is the index of g v g^-1 in the support. Both are homomorphisms in g (the
    model checks the first; the second is conjugation by an action of G), so
    the condition is tested on the model's generators of G alone.
    """

    model: ExtensionModel
    rows: np.ndarray  # the support V, sorted
    basis: np.ndarray  # int64 (dimension, |V|, n): basis[a, v] is c_v of element a
    conj: np.ndarray = field(repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def counits(self) -> np.ndarray:
        """The augmentation sum_v c_v of every basis element, as F_p scalars."""
        eps = self.basis.sum(axis=1) % self.model.p
        if np.any(eps[:, 1:]):
            raise TheoremViolation("augmentation of a fixed-ring element is not in F_p")
        return eps[:, 0]

    def contains(self, coeffs: np.ndarray) -> bool:
        """Whether every (|V|, n) coefficient array of the stack ``coeffs`` lies in the ring."""
        gens = self.model.generators
        frob_t = self.model.frobenius_matrices[gens].transpose(0, 2, 1)
        # [k, g, v]: g(c_v) - c_{g v g^-1} for element k and generator g
        moved = coeffs[:, None] @ frob_t - coeffs[:, self.conj[gens]]
        return not np.any(moved % self.model.p)


def fixed_ring_basis(model: ExtensionModel, support_rows: np.ndarray,
                     gbar_rows: np.ndarray | None = None) -> FixedRing:
    """(K[V])^{lambda(G)} by Galois descent on the orbits of conjugation by G.

    On the orbit of v (taken by its least member) with stabiliser S the fixed
    elements are exactly c_{g v g^-1} = g(b) for b in K^S, one g per coset gS
    (its least element). ``gbar_rows`` gives the action of each G element on
    the support domain (the left-regular action by default; block images for
    quotient supports).
    Asserts dim_k = |V| and that the basis is fixed.
    """
    if gbar_rows is None:
        gbar_rows = model.group.rows
    size, frob = len(support_rows), model.frobenius_matrices
    conj = row_indices(support_rows, conjugate(support_rows, gbar_rows))
    if conj is None:
        raise TheoremViolation("conjugator does not normalize the support group")
    blocks = []
    for v in np.flatnonzero(np.bincount(conj.min(axis=0), minlength=size)):  # least members
        sub = fixed_subfield_of_group(model, np.flatnonzero(conj[:, v] == v))
        orbit, cosets = np.unique(conj[:, v], return_index=True)
        block = np.zeros((len(sub), size, model.n), dtype=np.int64)
        block[:, orbit] = np.einsum("lij,dj->dli", frob[cosets], sub) % model.p
        blocks.append(block)
    basis = np.concatenate(blocks)
    if len(basis) != size:
        raise TheoremViolation(f"fixed ring dimension {len(basis)} != |V| = {size}")
    ring = FixedRing(model, support_rows, basis, conj)
    if not ring.contains(basis):
        raise TheoremViolation("fixed ring basis is not lambda(G)-invariant")
    return ring


def act(ring: FixedRing, coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Action of each h in ``coeffs`` (H, |V|, n) on each x in ``xs`` (X, n), cross-asserted.

    Returns the (H, X, n) stack of h(x), computed two ways:
    (a) push embed(x) through the basis action v(e_g) = e_{v(g)}, check the
    result is again an embedded element, read the identity component;
    (b) the closed formula sum_v c_v . (v^-1(0))(x), as act_matrix(ring, h) @ x.
    """
    model = ring.model
    p, frob = model.p, model.frobenius_matrices
    xs = np.asarray(xs, dtype=np.int64)
    embedded = np.einsum("gij,xj->xgi", frob, xs) % p  # [x, g]: g(x)
    terms = np.einsum("hvij,xgj->vghxi", model.mult_matrix(coeffs), embedded) % p
    components = np.zeros((len(frob),) + terms.shape[2:], dtype=np.int64)
    np.add.at(components, ring.rows, terms)  # component g of h(embed(x))
    components %= p
    y_slice = components[0]
    if np.any(np.einsum("gij,hxj->ghxi", frob, y_slice) % p != components):
        raise TheoremViolation("action did not land in the embedded copy of K")
    if np.any(np.einsum("hij,xj->hxi", act_matrix(ring, coeffs), xs) % p != y_slice):
        raise TheoremViolation("slice action and closed formula disagree")
    return y_slice


def act_matrix(ring: FixedRing, coeffs: np.ndarray) -> np.ndarray:
    """Matrices of x -> act(h, x) over F_p, one per h: sum_v Mult(c_v) . Frob^{v^-1(0)}."""
    model = ring.model
    frob = model.frobenius_matrices[np.argmin(ring.rows, axis=1)]  # v^-1(0)
    return (model.mult_matrix(coeffs) @ frob % model.p).sum(axis=-3) % model.p


@dataclass(frozen=True)
class FixedFieldResult:
    """K^{H_P} as an F_p-subspace of K, with its Galois group J = Psi(P)."""

    basis: np.ndarray  # RREF rows
    j_points: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]


def fixed_subfield_of_group(model: ExtensionModel, points: Sequence[int]) -> np.ndarray:
    """K^J for a set of group elements J, as read-only RREF rows solved once per model."""
    key = tuple(sorted({int(j) for j in points}))
    if key not in model._subfields:
        n, p = model.n, model.p
        stacked = model.frobenius_matrices[list(key)] - np.eye(n, dtype=np.int64)
        basis = fplin.rref(fplin.nullspace(stacked.reshape(-1, n), p), p)[0]
        basis.flags.writeable = False
        model._subfields[key] = basis
    return model._subfields[key]


def fixed_field(ring: FixedRing) -> FixedFieldResult:
    """Solution space of act(h_i, x) = eps(h_i) x over the basis of H_P.

    Asserts: dimension |G|/|P|, multiplicative closure, and exact equality
    with K^J for J the identity orbit of P.
    """
    model = ring.model
    n, p = model.n, model.p
    p_rows = ring.rows
    eye = np.eye(n, dtype=np.int64)
    systems = act_matrix(ring, ring.basis) - ring.counits()[:, None, None] * eye
    space = fplin.rref(fplin.nullspace(systems.reshape(-1, n) % p, p), p)[0]
    expected_dim = model.group.order // len(p_rows)
    if space.shape[0] != expected_dim:
        raise TheoremViolation(
            f"fixed field dimension {space.shape[0]} != [G:P] = {expected_dim}")
    products = np.einsum("aij,bj->abi", model.mult_matrix(space), space).reshape(-1, n)
    if fplin.rank(np.vstack([space, products]), p) != space.shape[0]:
        raise TheoremViolation("fixed field is not multiplicatively closed")
    j_points = psi_of_rows(model.group, p_rows).j_handle.members
    k_j = fixed_subfield_of_group(model, j_points)
    if not fplin.row_spaces_equal(space, k_j, p):
        raise TheoremViolation("K^{H_P} differs from K^J for J = Psi(P)")
    return FixedFieldResult(space, j_points)


def hopf_galois_rank(ring: FixedRing) -> bool:
    """True iff x (tensor) h -> x . act(h, -) spans all of End_k(K)."""
    model = ring.model
    n, p = model.n, model.p
    actions = act_matrix(ring, ring.basis)
    flat = np.einsum("iab,hbc->hiac", model.x_powers, actions).reshape(-1, n * n) % p
    return fplin.rank(flat, p) == n * n


def fixedsum_check(model: ExtensionModel, subsets: np.ndarray,
                   field_result: FixedFieldResult) -> np.ndarray:
    """The power-sum implication for a stack of subsets S of G (needs p > |G|).

    ``subsets`` is a (count, |G|) 0/1 mask, one row per S. If sum over S of
    sigma(x) = |S| x for all x in the subfield, then S must lie inside its
    Galois group J; entry i says whether that implication holds for row i.
    Every S is decided by one tensordot over the subfield's images g(x).
    """
    if model.p <= model.group.order:
        raise GroupSpecError("fixedsum check requires p > |G|")
    p, basis = model.p, field_result.basis
    images = np.einsum("gij,dj->gdi", model.frobenius_matrices, basis) % p  # [g, d]: g(x_d)
    sums = np.tensordot(subsets, images, 1) - subsets.sum(axis=1)[:, None, None] * basis
    hypothesis = ~np.any(sums % p, axis=(1, 2))
    outside = np.ones(model.group.order, dtype=bool)
    outside[list(field_result.j_points)] = False
    conclusion = ~np.any(subsets[:, outside], axis=1)
    return ~hypothesis | conclusion


# -- short exact sequence -------------------------------------------------------


def exact_sequence_check(h_n: FixedRing, h_p: FixedRing) -> dict:
    """Verify 1 -> H_P -> H_N -> H_{N/P} -> 1 by exact linear algebra.

    Reads the rings H_N and H_P as given, and H_{N/P} from the model's rings.
    Checks: (i) H_P embeds in H_N; (ii) the coset projection maps H_N onto
    H_{N/P}; (iii) its kernel has dimension |N| - [N:P]; (iv) the kernel
    equals H_N . H_P^+; (v) dim H_P = |P| and dim H_{N/P} = [N:P].
    Raises TheoremViolation on any failure.
    """
    model = h_n.model
    nfld, p = model.n, model.p
    n_rows, p_rows = h_n.rows, h_p.rows
    hn_coeffs, hp_coeffs = h_n.basis, h_p.basis

    # (i) zero-extend H_P coefficients to N's support and check membership
    size_n = len(n_rows)
    p_in_n = row_indices(n_rows, p_rows)
    if p_in_n is None:
        raise TheoremViolation("P is not contained in N")
    vq_index = row_indices(n_rows, n_rows[:, p_rows])  # [v, q]: the index of v o q in N
    if vq_index is None:
        raise TheoremViolation("a product v o q of N and P is not in N")
    extended = np.zeros((h_p.dimension, size_n, nfld), dtype=np.int64)
    extended[:, p_in_n] = hp_coeffs
    if not h_n.contains(extended):
        raise TheoremViolation("H_P does not embed into H_N")

    # block data: J = Psi(P)'s result holds its cosets and lambda(G)'s images; N's are built here
    result = psi_of_rows(model.group, p_rows)
    actions = block_actions(n_rows, result)
    nbar, nbar_index = actions.nbar, actions.nbar_index
    m = result.space.block_count
    if len(nbar) != size_n // len(p_rows):
        raise TheoremViolation("block image of N does not have order [N:P]")
    h_quot = model.ring_of(nbar, result.gbar_of)

    # (ii) projection surjects onto H_{N/P}
    onehot = np.eye(m, dtype=np.int64)[nbar_index]  # [v, b]: v lies over b

    def project(coeffs):
        return np.einsum("vb,kvi->kbi", onehot, coeffs) % p

    images = project(hn_coeffs)
    if not h_quot.contains(images):
        raise TheoremViolation("projection of H_N leaves H_{N/P}")
    image_rank = fplin.rank(images, p)
    if image_rank != m:
        raise TheoremViolation(f"projection image rank {image_rank} != [N:P] = {m}")

    # (iii) kernel dimension
    kernel_dim = h_n.dimension - image_rank
    if kernel_dim != size_n - m:
        raise TheoremViolation("kernel dimension is not |N| - [N:P]")

    # (iv) kernel equals H_N . H_P^+
    plus_coords = fplin.nullspace(hp_coeffs.sum(axis=1).T, p)  # augmentation zero
    if plus_coords.shape[0] != h_p.dimension - 1:
        raise TheoremViolation("augmentation ideal of H_P has wrong dimension")
    hp_plus = np.tensordot(plus_coords, hp_coeffs, 1) % p
    products = _group_ring_product(model, hn_coeffs, hp_plus, vq_index)
    if not h_n.contains(products):
        raise TheoremViolation("a product H_N . H_P^+ left H_N")
    if np.any(project(products)):
        raise TheoremViolation("a product H_N . H_P^+ is not in the kernel")
    span_rank = fplin.rank(products, p)
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


def _group_ring_product(model: ExtensionModel, left: np.ndarray, right: np.ndarray,
                        vq_index: np.ndarray) -> np.ndarray:
    """Every product (sum c_v v)(sum d_q q) in K[N], left[a] times right[b].

    ``left`` and ``right`` are coefficient arrays (count, support, n); entry
    a * len(right) + b of the result is the product's (|N|, n) array.
    """
    p, nfld = model.p, model.n
    terms = np.einsum("avij,bqj->vqabi", model.mult_matrix(left), right) % p
    out = np.zeros((len(vq_index), len(left), len(right), nfld), dtype=np.int64)
    np.add.at(out, vq_index, terms)
    return out.transpose(1, 2, 0, 3).reshape(len(left) * len(right), len(vq_index), nfld) % p
