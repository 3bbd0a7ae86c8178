"""Independent routes that the tests compare with the production code.

Nothing in qhgrass calls these.  Each repeats a production result by another
route:

- ClassVector, star_e, cup_e, pieri_on_label, reduce and vector are the
  symbolic Pieri layer: classes as {(label, q power): coeff} with q kept
  symbolic, and the section Pieri rule applied class by class.  symbolic_e_ops
  and symbolic_label_ops build the e-operators and the first-column recursion
  from those images; production reads both off the Pieri matrices.
  sigma1_triple_integral is the integral the section pairing reads off C_1.
- giambelli_expr, star_schubert and star multiply ambient classes through the
  Giambelli determinant in the Pieri operators; quantum.mult_operators uses
  the first-column Pieri recursion instead.
- pairing_q1 and radical are the class-level pairing and the radical of
  QH(Gr(k, n)).
- build_lifts and lift_operator write each section basis class as a
  polynomial in e_1..e_k and evaluate it on the e-operators; the section
  ring builds its label operators by the first-column Pieri recursion.
- perp_iso_check certifies A^0(X) = A^0_perp(Y) through cyclic generators.
- betti_numbers reads the even Betti numbers of a section off its graded
  ring; section_semisimplicity takes them from the Hodge diamond.
- rank and solve are exact row reduction through linalg.rref.
- to_beta_set, from_beta_set and core_search_unpruned are the beta-set
  bijection and the bitmask core search without the overhang prune, which
  visits every box complement of at most n - 1 cells.
- gram_matrix and cartan_from_gram derive the Cartan matrix from the
  invariant form; rootdata.cartan_matrix reads it off the Dynkin diagram.
- poincare_by_degrees divides the fundamental degrees of G by those of the
  Levi, which levi_degree_multiset finds by classifying Dynkin subdiagrams;
  rootdata.poincare_polynomial takes a product over root heights.
- gaussian_binomial, sg_betti, projective_space_profile, poly_from_roots and
  interpolate have no production caller: the t-binomial by the degree route,
  the SG(2, 2n) and P^m Betti profiles, and polynomials from roots and from
  points.

SMALL_TYPES lists the 38 Dynkin types whose 220 G/P_k the root-data tests
cover.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from qhgrass import linalg
from qhgrass.errors import InternalConsistencyError, InvalidInputError, UndeterminedProductError
from qhgrass.linalg import Matrix
from qhgrass.partitions import Box, Partition, canonical, size, transpose
from qhgrass.polynomials import UniPoly
from qhgrass.quantum import grassmannian, pieri_matrix, quantum_pieri, schubert_basis, vertical_strip_additions
from qhgrass.rootdata import DynkinType, GrassmannianId, _edges, _root_lengths
from qhgrass.screen import BettiProfile, profile_of
from qhgrass.section import BETA, SectionRing, build_ring, radical_and_perp

# A1-A11, B2-B9, C2-C9, D4-D9, E6-E8, F4 and G2: 220 G/P_k in all
SMALL_TYPES = tuple(
    DynkinType(family, rank)
    for family, ranks in (
        ("A", range(1, 12)), ("B", range(2, 10)), ("C", range(2, 10)), ("D", range(4, 10)),
        ("E", range(6, 9)), ("F", (4,)), ("G", (2,)),
    )
    for rank in ranks
)

# -- exact linear systems -------------------------------------------------------


def rank(a: Matrix) -> int:
    if not a:
        return 0
    return len(linalg.rref(a)[0])


def solve(a: Matrix, b: list) -> list:
    """Solve a @ x = b exactly (a square or tall with full column rank)."""
    cols = len(a[0])
    aug = [list(row) + [bi] for row, bi in zip(a, b)]
    pivots, red = linalg.rref(aug)
    if cols in pivots:
        raise InternalConsistencyError("inconsistent linear system")
    x = [0] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    if len(pivots) < cols:
        raise InternalConsistencyError("linear system is underdetermined")
    if any(sum(row[j] * x[j] for j in range(cols)) != bi for row, bi in zip(a, b)):
        raise InternalConsistencyError("exact solve verification failed")
    return x


# -- beta sets and the unpruned core search --------------------------------------


def to_beta_set(lam: Partition, box: Box) -> tuple[int, ...]:
    """First-column hook lengths a_i = lam_i + k - i + 1, strictly decreasing in [1, n]."""
    lam = box.require(lam)
    k = box.k
    padded = lam + (0,) * (k - len(lam))
    return tuple(padded[i] + (k - i) for i in range(k))


def from_beta_set(beta, box: Box) -> Partition:
    """Inverse of to_beta_set on k-subsets of [1, n]."""
    beta = tuple(sorted(set(int(a) for a in beta), reverse=True))
    if len(beta) != box.k or beta[0] > box.n or beta[-1] < 1:
        raise InvalidInputError(f"{beta} is not a {box.k}-subset of [1, {box.n}]")
    return canonical(tuple(beta[i] - (box.k - i) for i in range(box.k)))


def core_search_unpruned(box: Box) -> list[tuple[Partition, int]]:
    """partitions.core_search's bitmask test on every complement mu of at most
    n - 1 cells and every i in [max(|mu|, 1), n - 1], in the same order."""
    k, n = box.k, box.n
    hits: list[list[Partition]] = [[] for _ in range(n)]

    def visit(mu, beta, cells):
        for i in range(max(cells, 1), n):
            if not (beta >> (n - i)) & ~beta & ~1:
                hits[i].append(box.dual(mu))
        if len(mu) < k:
            bit = n - k + len(mu) + 1
            for a in range(1, min(mu[-1] if mu else n - k, n - 1 - cells) + 1):
                visit(mu + (a,), beta ^ (1 << bit) ^ (1 << (bit - a)), cells + a)

    visit((), ((1 << k) - 1) << (n - k + 1), 0)
    return [(lam, i) for i in range(n - 1, 0, -1) for lam in sorted(hits[i], reverse=True)]


# -- root data: the Gram matrix and the fundamental degrees ----------------------


@lru_cache(maxsize=None)
def gram_matrix(t: DynkinType) -> tuple[tuple[int, ...], ...]:
    """Symmetric matrix of inner products (alpha_i, alpha_j)."""
    n = t.rank
    d = _root_lengths(t)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = d[i]
    for a, b in _edges(t):
        i, j = a - 1, b - 1
        # bond multiplicity equals the length ratio, so 4 (a_i, a_j)^2 = ratio * d_i * d_j
        ratio = max(d[i], d[j]) // min(d[i], d[j])
        val = -_exact_sqrt(ratio * d[i] * d[j] // 4)
        g[i][j] = g[j][i] = val
    return tuple(tuple(row) for row in g)


def _exact_sqrt(m: int) -> int:
    r = int(round(m ** 0.5))
    if r * r != m:
        raise InternalConsistencyError(f"edge inner product {m} is not a perfect square")
    return r


@lru_cache(maxsize=None)
def cartan_from_gram(t: DynkinType) -> tuple[tuple[int, ...], ...]:
    """cartan[i][j] = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i), an integer."""
    g = gram_matrix(t)
    n = t.rank
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            num = 2 * g[i][j]
            if num % g[i][i]:
                raise InternalConsistencyError("Cartan entry is not integral")
            row.append(num // g[i][i])
        out.append(tuple(row))
    return tuple(out)


def fundamental_degrees(t: DynkinType) -> tuple[int, ...]:
    """Degrees of basic Weyl-group invariants (exponents + 1)."""
    n = t.rank
    if t.family == "A":
        return tuple(range(2, n + 2))
    if t.family in ("B", "C"):
        return tuple(range(2, 2 * n + 1, 2))
    if t.family == "D":
        return tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n]))
    return {
        ("E", 6): (2, 5, 6, 8, 9, 12),
        ("E", 7): (2, 6, 8, 10, 12, 14, 18),
        ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
        ("F", 4): (2, 6, 8, 12),
        ("G", 2): (2, 6),
    }[(t.family, n)]


def _classify_component(nodes: list[int], t: DynkinType) -> tuple[int, ...]:
    """Fundamental degrees of the subsystem generated by the given nodes."""
    cartan = cartan_from_gram(t)
    size = len(nodes)
    if size == 1:
        return (2,)
    adj = {a: [] for a in nodes}
    mults = []
    for a in nodes:
        for b in nodes:
            if a < b and cartan[a - 1][b - 1] != 0:
                adj[a].append(b)
                adj[b].append(a)
                mults.append(cartan[a - 1][b - 1] * cartan[b - 1][a - 1])
    if any(m == 3 for m in mults):
        return fundamental_degrees(DynkinType("G", 2))
    if any(m == 2 for m in mults):
        # a terminal double edge gives the B/C degree sequence 2, 4, ..., 2*size;
        # an interior one would be F4, which never occurs as a proper Levi
        double = [
            (a, b)
            for a in nodes
            for b in adj[a]
            if a < b and cartan[a - 1][b - 1] * cartan[b - 1][a - 1] == 2
        ]
        (a, b), = double
        if len(adj[a]) > 1 and len(adj[b]) > 1:
            raise InternalConsistencyError(f"interior double edge in Levi component {nodes}")
        return tuple(range(2, 2 * size + 1, 2))
    degs = sorted(len(adj[a]) for a in nodes)
    if degs[-1] <= 2:
        return fundamental_degrees(DynkinType("A", size))
    branch = next(a for a in nodes if len(adj[a]) == 3)
    arms = []
    for start in adj[branch]:
        length, prev, cur = 1, branch, start
        while True:
            step = [b for b in adj[cur] if b != prev]
            if not step:
                break
            prev, cur = cur, step[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return fundamental_degrees(DynkinType("D", size))
    if arms[0] == 1 and arms[1] == 2 and size in (6, 7, 8):
        return fundamental_degrees(DynkinType("E", size))
    raise InternalConsistencyError(f"unrecognized Levi component on nodes {nodes}")


def levi_degree_multiset(g: GrassmannianId) -> list[int]:
    """Fundamental degrees of the semisimple part of the Levi of P_k."""
    t = g.type
    remaining = [a for a in range(1, t.rank + 1) if a != g.node]
    cartan = cartan_from_gram(t)
    seen: set[int] = set()
    degrees: list[int] = []
    for a in remaining:
        if a in seen:
            continue
        comp = [a]
        seen.add(a)
        stack = [a]
        while stack:
            x = stack.pop()
            for b in remaining:
                if b not in seen and cartan[x - 1][b - 1] != 0:
                    seen.add(b)
                    comp.append(b)
                    stack.append(b)
        degrees.extend(_classify_component(sorted(comp), t))
    return degrees


def poincare_by_degrees(g: GrassmannianId) -> UniPoly:
    """prod (1 - t^d) over the degrees of G, divided by (1 - t) and the same
    product over the degrees of the Levi."""
    numerator = UniPoly.one()
    for d in fundamental_degrees(g.type):
        numerator = numerator * _one_minus_t_power(d)
    denominator = _one_minus_t_power(1)
    for d in levi_degree_multiset(g):
        denominator = denominator * _one_minus_t_power(d)
    return numerator.div_exact(denominator)


def _one_minus_t_power(d: int) -> UniPoly:
    return UniPoly([1] + [0] * (d - 1) + [-1])


def gaussian_binomial(n: int, k: int) -> UniPoly:
    """The t-binomial coefficient; Poincare polynomial of Gr(k, n)."""
    if not 0 < k < n:
        raise InvalidInputError(f"need 0 < k < n, got k={k}, n={n}")
    return poincare_by_degrees(GrassmannianId(DynkinType("A", n - 1), k))


# -- Betti profiles and polynomials with no production caller -------------------


def sg_betti(n: int) -> tuple[BettiProfile, BettiProfile]:
    """Betti profiles of the symplectic Grassmannian SG(2, 2n) and of its
    smooth hyperplane section.

    SG(2, 2n) is itself a hyperplane section of Gr(2, 2n); its section profile
    is obtained by the Euler-number-preserving transfer: Betti numbers agree
    below the middle, the middle absorbs the vanished class, and the rest is
    filled in palindromically.
    """
    if n < 3:
        raise InvalidInputError(f"SG(2, 2n) transfer needs n >= 3, got {n}")
    x = profile_of(GrassmannianId(DynkinType("C", n), 2))
    dim_x = len(x.even_betti) - 1
    if dim_x != 4 * n - 5 or x.index != 2 * n - 1:
        raise InvalidInputError(f"unexpected SG(2,{2*n}) invariants")
    dim_y = dim_x - 1
    mid = 2 * n - 3
    b_y = [0] * (dim_y + 1)
    for i in range(mid):
        b_y[i] = x.even_betti[i]
    b_y[mid] = x.even_betti[mid] + x.even_betti[mid + 1]
    for i in range(mid + 1, dim_y + 1):
        b_y[i] = b_y[dim_y - i]
    y = BettiProfile(tuple(b_y), 2 * n - 2, f"section of SG(2,{2*n})")
    if y.euler != x.euler:
        raise InvalidInputError("section profile does not preserve the Euler number")
    return x, y


def projective_space_profile(m: int) -> BettiProfile:
    return BettiProfile((1,) * (m + 1), m + 1, f"P{m}")


def poly_from_roots(roots) -> UniPoly:
    out = UniPoly.one()
    for r in roots:
        out = out * UniPoly([-r, 1])
    return out


def interpolate(points) -> UniPoly:
    """Lagrange interpolation through exact (x, y) points with distinct x."""
    points = [(Fraction(x), Fraction(y)) for x, y in points]
    out = UniPoly.zero()
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        term = UniPoly([yi])
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = term * UniPoly([Fraction(-xj, 1) / (xi - xj), Fraction(1, 1) / (xi - xj)])
        out = out + term
    return out


# -- the symbolic Pieri layer ----------------------------------------------------


class ClassVector:
    """Exact linear combination of (label, q-power) basis elements; the labels
    are partitions in the box, and for a section ring also its beta."""

    __slots__ = ("box", "terms")

    def __init__(self, box: Box, terms=None):
        self.box = box
        self.terms: dict[tuple[object, int], Fraction | int] = {}
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    self.terms[key] = coeff

    @staticmethod
    def schubert(box: Box, lam: Partition, q_power: int = 0, coeff=1) -> "ClassVector":
        return ClassVector(box, {(box.require(lam), q_power): coeff})

    @staticmethod
    def unit(box: Box) -> "ClassVector":
        return ClassVector.schubert(box, ())

    def __add__(self, other: "ClassVector") -> "ClassVector":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return ClassVector(self.box, out)

    def __sub__(self, other: "ClassVector") -> "ClassVector":
        return self + other.scale(-1)

    def scale(self, c) -> "ClassVector":
        return ClassVector(self.box, {key: c * v for key, v in self.terms.items()})

    def shift_q(self, d: int) -> "ClassVector":
        return ClassVector(self.box, {(lam, qp + d): v for (lam, qp), v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, ClassVector) and self.box == other.box and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        def fmt(key, coeff):
            lab, qp = key
            q = f"q^{qp}*" if qp > 1 else ("q*" if qp == 1 else "")
            return f"{coeff}*{q}" + (f"s{lab}" if isinstance(lab, tuple) else lab)

        # beta is a string label, so sort by repr rather than by the labels
        terms = sorted(self.terms.items(), key=lambda item: (repr(item[0][0]), item[0][1]))
        return " + ".join(fmt(k, v) for k, v in terms) or "0"


def star_e(p: int, x: ClassVector) -> ClassVector:
    """Quantum multiplication of a class vector by sigma_{1^p}, q symbolic."""
    out = ClassVector(x.box)
    for (lam, qp), coeff in x.terms.items():
        out = out + ClassVector(x.box, quantum_pieri(p, lam, x.box)).shift_q(qp).scale(coeff)
    return out


def cup_e(p: int, x: ClassVector) -> ClassVector:
    """Classical multiplication by sigma_{1^p} (the q-degree-0 Pieri part)."""
    out = ClassVector(x.box)
    for (lam, qp), coeff in x.terms.items():
        for mu in vertical_strip_additions(lam, p, x.box):
            out = out + ClassVector.schubert(x.box, mu, qp, coeff)
    return out


def sigma1_triple_integral(lam: Partition, mu: Partition, box: Box) -> int:
    """Integral over X of s_lam * s_mu * s_1 (classical cup product)."""
    return 1 if box.dual(mu) in vertical_strip_additions(lam, 1, box) else 0


def vector(alg, x: ClassVector) -> list:
    """Basis coordinates of a class at q = alg.q_value."""
    coords = [0] * len(alg.basis)
    for (lab, qp), coeff in x.terms.items():
        coords[alg.index[lab]] += coeff * alg.q_value**qp
    return coords


def reduce(ring: SectionRing, x: ClassVector) -> ClassVector:
    """Push an ambient class to the section's quotient, keeping q powers."""
    out: dict[tuple, Fraction | int] = {}

    def add(lam, qp, coeff):
        if size(lam) > ring.dim_y:
            # top ambient degree restricts to zero on Y
            if size(lam) > ring.dim_y + 1:
                raise InternalConsistencyError("class beyond the ambient top degree")
            return
        if lam in ring.relations:
            for mu, c in ring.relations[lam].items():
                add(mu, qp, coeff * c)
        else:
            key = (lam, qp)
            out[key] = out.get(key, 0) + coeff

    for (lam, qp), coeff in x.terms.items():
        add(lam, qp, coeff)
    return ClassVector(ring.box, out)


def schubert(ring: SectionRing, lam, q_power: int = 0, coeff=1) -> ClassVector:
    return reduce(ring, ClassVector.schubert(ring.box, lam, q_power, coeff))


def beta(ring: SectionRing) -> ClassVector:
    if not ring.prim_dim:
        raise InvalidInputError(f"no primitive class for (3, {ring.box.n})")
    return ClassVector(ring.box, {(BETA, 0): 1})


@lru_cache(maxsize=None)
def _section_pieri_on_label(ring: SectionRing, p: int, lab) -> ClassVector:
    if lab == BETA:
        return ClassVector(ring.box)
    lam = ClassVector.schubert(ring.box, lab)
    classical = cup_e(p, lam)
    lam_h = cup_e(1, lam)
    quantum = star_e(p, lam_h) - cup_e(p, lam_h)
    if any(qp == 0 for (_, qp) in quantum.terms):
        raise InternalConsistencyError("classical parts did not cancel in section Pieri")
    return reduce(ring, classical + quantum)


def pieri_on_label(alg, p: int, lab) -> ClassVector:
    """e_p * (basis label), q symbolic: the quantum Pieri rule on Gr(k, n),
    and on a section ring the section Pieri rule
    e_p j(lam) = j(s_{1^p} cup lam) + j((s_{1^p} star - s_{1^p} cup)(s_1 cup lam)),
    e_p beta = 0.  Section images are computed once per (ring, p, label) and
    shared, so callers must not mutate them."""
    if not 1 <= p <= alg.k:
        raise InvalidInputError(f"Pieri index p={p} outside [1, {alg.k}]")
    if isinstance(alg, SectionRing):
        return _section_pieri_on_label(alg, p, lab)
    return ClassVector(alg.box, quantum_pieri(p, lab, alg.box))


def symbolic_e_ops(alg) -> dict[int, Matrix]:
    """The e-operators with column j the symbolic image of basis[j] at q_value."""
    return {
        p: [list(col) for col in zip(*(vector(alg, pieri_on_label(alg, p, lab)) for lab in alg.basis))]
        for p in range(1, alg.k + 1)
    }


def symbolic_label_ops(alg) -> dict:
    """mult_operators' first-column recursion L_lam = E_p L_lam' - sum c q^d L_mu,
    with E_p from symbolic_e_ops and each image from pieri_on_label."""
    dim = len(alg.basis)
    e_ops = symbolic_e_ops(alg)
    ops = {(): linalg.identity(dim)}
    partitions = [lab for lab in alg.basis if isinstance(lab, tuple) and lab]
    for lam in sorted(partitions, key=lambda lab: (size(lab), lab)):
        p, lam_prime = len(lam), canonical(tuple(a - 1 for a in lam))
        image = dict(pieri_on_label(alg, p, lam_prime).terms)
        if image.pop((lam, 0), 0) != 1:
            raise InternalConsistencyError(f"e_{p} * s{lam_prime} does not determine s{lam}")
        corrections = [(-coeff * alg.q_value**d, ops[mu]) for (mu, d), coeff in image.items()]
        ops[lam] = linalg.mat_combine(corrections, linalg.mat_mul(e_ops[p], ops[lam_prime]))
    return ops


# -- the ambient ring through Giambelli determinants ---------------------------


@lru_cache(maxsize=None)
def giambelli_expr(lam: Partition, box: Box) -> tuple[tuple[tuple[int, ...], int], ...]:
    """sigma_lam as a polynomial in E_1..E_k: dual Jacobi-Trudi determinant
    det(E_{lam~_i - i + j}), returned as (exponent vector, coefficient) pairs."""
    lam = box.require(lam)
    if not lam:
        return (((0,) * box.k, 1),)
    tr = transpose(lam)
    m = lam[0]
    monomials: dict[tuple[int, ...], int] = {}

    def entry(i, j):
        # 0-indexed; E_0 = 1, out-of-range indices vanish
        return tr[i] - (i + 1) + (j + 1)

    def expand(row, used, sign, expo):
        if row == m:
            monomials[expo] = monomials.get(expo, 0) + sign
            return
        for j in range(m):
            if used & (1 << j):
                continue
            e = entry(row, j)
            if e < 0 or e > box.k:
                continue
            new = expo
            if e > 0:
                new = expo[: e - 1] + (expo[e - 1] + 1,) + expo[e:]
            swaps = bin(used >> (j + 1)).count("1")
            expand(row + 1, used | (1 << j), sign * (-1) ** (swaps % 2), new)

    expand(0, 0, 1, (0,) * box.k)
    return tuple(sorted((e, c) for e, c in monomials.items() if c))


def apply_e_monomial(expo, x: ClassVector) -> ClassVector:
    for p, count in enumerate(expo, start=1):
        for _ in range(count):
            x = star_e(p, x)
    return x


def star_schubert(lam: Partition, x: ClassVector) -> ClassVector:
    """sigma_lam * x through the Giambelli polynomial in Pieri operators."""
    out = ClassVector(x.box)
    for expo, coeff in giambelli_expr(lam, x.box):
        out = out + apply_e_monomial(expo, x).scale(coeff)
    return out


def star(a: ClassVector, b: ClassVector) -> ClassVector:
    """Full quantum product, q symbolic."""
    out = ClassVector(a.box)
    for (lam, qp), coeff in a.terms.items():
        out = out + star_schubert(lam, b).shift_q(qp).scale(coeff)
    return out


def pairing_q1(a: ClassVector, b: ClassVector):
    """Poincare pairing extended bilinearly with q specialized to 1."""
    return sum(
        ca * cb
        for (lam, _), ca in a.terms.items()
        for (mu, _), cb in b.terms.items()
        if mu == a.box.dual(lam)
    )


def radical(box: Box, q_value=1) -> tuple[list[list], list[list]]:
    """Kernel of the N-th power of quantum multiplication by sigma_1, plus the
    orthogonal complement of that kernel inside the residue-0 graded piece."""
    basis = schubert_basis(box)
    n = len(basis)
    e1 = [list(row) for row in pieri_matrix(box, 1, q_value)]
    rad = linalg.kernel_basis(linalg.mat_pow(e1, n))
    alg = grassmannian(box, q_value)
    idx, pairing, piece = alg.index, alg.pairing, alg.residue_piece(0)
    constraints = []
    for u in rad:
        pu = linalg.mat_vec(pairing, u)
        constraints.append([pu[idx[lam]] for lam in piece])
    if constraints:
        perp_coords = linalg.kernel_basis(constraints)
    else:
        perp_coords = linalg.identity(len(piece))
    perp = []
    for coords in perp_coords:
        v = [0] * n
        for c, lam in zip(coords, piece):
            v[idx[lam]] = c
        perp.append(v)
    return rad, perp


# -- the section ring through lift polynomials --------------------------------


def section_pieri(ring: SectionRing, p: int, x: ClassVector) -> ClassVector:
    """e_p * x for a section class x, q symbolic."""
    out = ClassVector(ring.box)
    for (lab, qp), coeff in x.terms.items():
        out = out + pieri_on_label(ring, p, lab).shift_q(qp).scale(coeff)
    return out


def apply_monomial(ring: SectionRing, expo, x: ClassVector) -> ClassVector:
    for p, count in enumerate(expo, start=1):
        for _ in range(count):
            x = section_pieri(ring, p, x)
    return x


def build_lifts(ring: SectionRing) -> dict[Partition, dict[tuple[int, ...], int]]:
    """For each ambient basis class, a polynomial in e_1..e_k representing it
    as a star-polynomial applied to the unit, built by degree-increasing
    triangular lifting: the classical Giambelli determinant, minus the
    already-lifted lower-degree classes its quantum corrections produce."""
    lifts = {(): {(0,) * ring.k: 1}}
    for m in range(1, ring.dim_y + 1):
        for lam in sorted(ring.degree_basis[m]):
            poly: dict[tuple[int, ...], int] = {}
            for expo, coeff in giambelli_expr(lam, ring.box):
                poly[expo] = poly.get(expo, 0) + coeff
            value = ClassVector(ring.box)
            for expo, coeff in poly.items():
                value = value + apply_monomial(ring, expo, ClassVector.unit(ring.box)).scale(coeff)
            rest = value - ClassVector(ring.box, {(lam, 0): 1})
            for (lab, qp), coeff in rest.terms.items():
                if lab == BETA or qp == 0 or ring.label_degree(lab) >= m:
                    raise InternalConsistencyError(f"lift of {lam} has unexpected term {lab} q^{qp}")
            for (lab, qp), coeff in rest.terms.items():
                for expo, c in lifts[lab].items():
                    poly[expo] = poly.get(expo, 0) - coeff * c * ring.q_value**qp
            lifts[lam] = {e: c for e, c in poly.items() if c}
    return lifts


def lift_operator(ring: SectionRing, lifts: dict, coords) -> Matrix:
    """The multiplication operator of an ambient element in basis
    coordinates, through the lift polynomials evaluated on the commuting
    e-operators."""
    dim = len(ring.basis)
    poly: dict[tuple[int, ...], int] = {}
    for coeff, lab in zip(coords, ring.basis):
        if not coeff:
            continue
        if lab == BETA:
            raise UndeterminedProductError(
                "multiplication by the primitive class is undetermined by the source"
            )
        for expo, c in lifts[lab].items():
            poly[expo] = poly.get(expo, 0) + coeff * c
    terms = []
    powers: dict[tuple[int, int], Matrix] = {}

    def power(p, count):
        if count == 0:
            return linalg.identity(dim)
        if (p, count) not in powers:
            powers[(p, count)] = linalg.mat_mul(ring.e_ops[p], power(p, count - 1))
        return powers[(p, count)]

    for expo, coeff in poly.items():
        term = power(1, expo[0])
        for p in range(2, ring.k + 1):
            if expo[p - 1]:
                term = linalg.mat_mul(term, power(p, expo[p - 1]))
        terms.append((coeff, term))
    return linalg.mat_combine(terms, linalg.zeros(dim, dim))


# -- A^0(X) = A^0_perp(Y) -----------------------------------------------------


def perp_iso_check(k: int, n: int) -> bool:
    """Certify the isomorphism A^0(X) -> A^0_perp(Y) through cyclic generators.

    The generator is sigma_1^{r_X} for n = 7 and sigma_1^{r_X - 2} * sigma_{1^2}
    for n = 8; the check is that its powers span both sides, that the two
    characteristic polynomials agree, and that the images of sigma_1^{r_X}
    have identical expansions in the two power bases.
    """
    if (k, n) not in ((3, 7), (3, 8)):
        raise InvalidInputError("perp isomorphism check implemented for Gr(3,7) and Gr(3,8)")
    box = Box(k, n)
    ring = build_ring(k, n)
    basis_x = schubert_basis(box)
    piece_x = grassmannian(box).residue_piece(0)
    dim0 = len(piece_x)
    e1x = [list(r) for r in pieri_matrix(box, 1, 1)]
    e2x = [list(r) for r in pieri_matrix(box, 2, 1)]
    if n == 7:
        gen_x = linalg.mat_pow(e1x, n)
        gen_y = linalg.mat_pow(ring.e_ops[1], n - 1)
    else:
        gen_x = linalg.mat_mul(linalg.mat_pow(e1x, n - 2), e2x)
        gen_y = linalg.mat_mul(linalg.mat_pow(ring.e_ops[1], n - 3), ring.e_ops[2])

    # ambient side: powers of the generator applied to the unit
    idx_x = {lam: i for i, lam in enumerate(basis_x)}
    unit_x = [0] * len(basis_x)
    unit_x[idx_x[()]] = 1
    powers_x = [unit_x]
    for _ in range(dim0 - 1):
        powers_x.append(linalg.mat_vec(gen_x, powers_x[-1]))
    coords_x = [[v[idx_x[lam]] for lam in piece_x] for v in powers_x]
    if rank(coords_x) != dim0:
        return False
    cols_x = [idx_x[lam] for lam in piece_x]
    char_x = linalg.charpoly([[gen_x[r][c] for c in cols_x] for r in cols_x])

    # section side: powers of the generator, projected away from the radical
    rad, perp = radical_and_perp(k, n)
    project = _perp_projector(ring, rad)
    unit_y = vector(ring, ClassVector.unit(ring.box))
    powers_y = [unit_y]
    for _ in range(dim0 - 1):
        powers_y.append(linalg.mat_vec(gen_y, powers_y[-1]))
    perp_powers = [project(v) for v in powers_y]
    if rank(perp_powers) != dim0:
        return False
    # matrix of the generator on the perp space, then compare spectra
    solver = linalg.ColumnSpanSolver(perp)
    coords = [solver.coords(project(linalg.mat_vec(gen_y, v))) for v in perp]
    char_y = linalg.charpoly([list(col) for col in zip(*coords)])
    if char_x != char_y:
        return False
    # identical linear expansions of sigma_1^{r_X} and ((j sigma_1)^{r_Y})_perp
    # in the two power bases
    target_x = linalg.mat_vec(linalg.mat_pow(e1x, n), unit_x)
    expansion_x = solve([list(col) for col in zip(*powers_x)], target_x)
    target_y = project(linalg.mat_vec(linalg.mat_pow(ring.e_ops[1], n - 1), unit_y))
    expansion_y = solve([list(col) for col in zip(*perp_powers)], target_y)
    return expansion_x == expansion_y


def _perp_projector(ring: SectionRing, rad: list[list]):
    """Projection onto the pairing-orthogonal complement of the radical."""
    if not rad:
        return lambda v: list(v)
    gram = [[_pair_vec(ring, u, w) for w in rad] for u in rad]
    if linalg.det_bareiss(gram) == 0:
        raise InternalConsistencyError("pairing is degenerate on the radical")

    def project(v):
        rhs = [_pair_vec(ring, v, u) for u in rad]
        coeffs = solve(gram, rhs)
        out = list(v)
        for c, u in zip(coeffs, rad):
            out = [x - c * y for x, y in zip(out, u)]
        return out

    return project


def _pair_vec(ring: SectionRing, u, v):
    return sum(a * b for a, b in zip(u, linalg.mat_vec(ring.pairing, v)))


def betti_numbers(ring) -> tuple[int, ...]:
    """Even Betti numbers of Y read off the graded ring dimensions."""
    out = []
    for m in range(ring.dim_y + 1):
        b = len(ring.degree_basis[m])
        if ring.prim_dim and m == ring.dim_y // 2:
            b += ring.prim_dim
        out.append(b)
    return tuple(out)
