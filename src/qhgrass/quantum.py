"""Small quantum cohomology of Gr(k, n) with exact rational coefficients.

Everything is driven by the quantum Pieri rule for the special classes
sigma_{1^p} (Chern classes of the dual tautological subbundle):

    sigma_{1^p} * sigma_lam = sum_mu sigma_mu + q sum_nu sigma_nu,

where mu ranges over additions of p cells to lam with no two in the same row,
and nu over partitions of |lam| + p - n whose transpose interlaces the
transpose of lam shifted down by one (possible only when lam_1 = n - k).
General products come from the multiplication operators of mult_operators,
built by a triangular Pieri recursion, so no Littlewood-Richardson rule is
needed; the Giambelli route lives with the tests as an independent check, so
the quantum Giambelli property is a checked invariant rather than an input.

The quantum parameter q has degree n.  Matrices specialize q to an exact
rational (default 1); class-level products keep q symbolic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import linalg
from .errors import InvalidInputError
from .linalg import Matrix
from .partitions import Box, Partition, box_partitions, canonical, size, transpose
from .polynomials import UniPoly


@lru_cache(maxsize=None)
def schubert_basis(box: Box) -> tuple[Partition, ...]:
    """Schubert basis ordered by degree, lexicographically decreasing within."""
    return tuple(sorted(box_partitions(box.k, box.n), key=lambda lam: (size(lam), tuple(-a for a in lam))))


@lru_cache(maxsize=None)
def basis_index(box: Box) -> dict[Partition, int]:
    return {lam: i for i, lam in enumerate(schubert_basis(box))}


def vertical_strip_additions(lam: Partition, p: int, box: Box) -> list[Partition]:
    """Partitions in the box obtained from lam by adding p cells, no two per row."""
    lam = box.require(lam)
    padded = lam + (0,) * (box.k - len(lam))
    out = []
    for rows in combinations(range(box.k), p):
        mu = list(padded)
        for i in rows:
            mu[i] += 1
        if mu[0] <= box.cols and all(mu[i] >= mu[i + 1] for i in range(box.k - 1)):
            out.append(canonical(mu))
    return sorted(out, reverse=True)


def quantum_rim_partitions(lam: Partition, p: int, box: Box) -> list[Partition]:
    """The q-linear terms of sigma_{1^p} * sigma_lam: transposed interlacing."""
    target = size(lam) + p - box.n
    if target < 0 or not lam or lam[0] != box.cols:
        return []
    width = box.cols
    tr = transpose(lam) + (0,) * (width - len(transpose(lam)))
    out = []

    def rec(i, remaining, prefix):
        if i == width:
            if remaining == 0:
                out.append(transpose(canonical(prefix)))
            return
        lower = max(tr[i + 1] - 1 if i + 1 < width else 0, 0)
        upper = tr[i] - 1
        if upper < lower:
            return
        for v in range(min(upper, remaining), lower - 1, -1):
            rec(i + 1, remaining - v, prefix + (v,))

    rec(0, target, ())
    return sorted(out, reverse=True)


class ClassVector:
    """Exact linear combination of (partition, q-power) basis elements."""

    __slots__ = ("box", "terms")

    def __init__(self, box: Box, terms=None):
        self.box = box
        self.terms: dict[tuple[Partition, int], Fraction | int] = {}
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

    def homogeneous_degree(self) -> int | None:
        """Common value of |lam| + n * q_power, or None if mixed."""
        degrees = {size(lam) + self.box.n * qp for (lam, qp) in self.terms}
        if len(degrees) > 1:
            return None
        return degrees.pop() if degrees else 0

    def specialize_q(self, q_value) -> dict[Partition, Fraction | int]:
        out: dict[Partition, Fraction | int] = {}
        for (lam, qp), coeff in self.terms.items():
            val = coeff * q_value**qp
            if val:
                out[lam] = out.get(lam, 0) + val
        return {lam: v for lam, v in out.items() if v}

    def to_vector(self, q_value=1) -> list:
        coords = [0] * len(schubert_basis(self.box))
        idx = basis_index(self.box)
        for lam, coeff in self.specialize_q(q_value).items():
            coords[idx[lam]] += coeff
        return coords

    def __repr__(self):
        def fmt(key, coeff):
            lam, qp = key
            q = f"q^{qp}*" if qp > 1 else ("q*" if qp == 1 else "")
            return f"{coeff}*{q}s{lam}"

        return " + ".join(fmt(k, v) for k, v in sorted(self.terms.items())) or "0"


def quantum_pieri(p: int, lam: Partition, box: Box) -> ClassVector:
    """sigma_{1^p} * sigma_lam as a q-graded class; all coefficients are 1."""
    if not 1 <= p <= box.k:
        raise InvalidInputError(f"Pieri index p={p} outside [1, {box.k}]")
    lam = box.require(lam)
    terms: dict[tuple[Partition, int], int] = {}
    for mu in vertical_strip_additions(lam, p, box):
        terms[(mu, 0)] = 1
    for nu in quantum_rim_partitions(lam, p, box):
        terms[(nu, 1)] = 1
    return ClassVector(box, terms)


def star_e(p: int, x: ClassVector) -> ClassVector:
    """Quantum multiplication of a class vector by sigma_{1^p}, q symbolic."""
    out = ClassVector(x.box)
    for (lam, qp), coeff in x.terms.items():
        out = out + quantum_pieri(p, lam, x.box).shift_q(qp).scale(coeff)
    return out


def cup_e(p: int, x: ClassVector) -> ClassVector:
    """Classical multiplication by sigma_{1^p} (the q-degree-0 Pieri part)."""
    out = ClassVector(x.box)
    for (lam, qp), coeff in x.terms.items():
        for mu in vertical_strip_additions(lam, p, x.box):
            out = out + ClassVector.schubert(x.box, mu, qp, coeff)
    return out


@lru_cache(maxsize=None)
def pieri_matrix(box: Box, p: int, q_value=1) -> tuple[tuple, ...]:
    """Matrix of sigma_{1^p} * (-) over the Schubert basis at the given q."""
    basis = schubert_basis(box)
    idx = basis_index(box)
    mat = linalg.zeros(len(basis), len(basis))
    for col, lam in enumerate(basis):
        for nu, coeff in quantum_pieri(p, lam, box).specialize_q(q_value).items():
            mat[idx[nu]][col] += coeff
    return tuple(tuple(row) for row in mat)


def _pieri_matrices(box: Box, q_value) -> dict[int, Matrix]:
    return {p: [list(row) for row in pieri_matrix(box, p, q_value)] for p in range(1, box.k + 1)}


@lru_cache(maxsize=None)
def mult_operators(box: Box, q_value=1) -> dict[Partition, Matrix]:
    """Multiplication operator of every Schubert class, by triangular recursion.

    Removing the first column of lam and re-adding it by the Pieri rule
    expresses M_lam through E_p M_{lam'} minus same-degree corrections that are
    lexicographically smaller and quantum corrections of lower degree, so a
    single pass in (degree, lex) order fills the whole table.
    """
    basis = schubert_basis(box)
    E = _pieri_matrices(box, q_value)
    ops: dict[Partition, Matrix] = {(): linalg.identity(len(basis))}
    for lam in sorted(basis, key=lambda l: (size(l), l)):
        if not lam:
            continue
        p = len(lam)
        lam_prime = canonical(tuple(a - 1 for a in lam))
        corrections = [
            (-coeff * q_value**d, ops[mu])
            for (mu, d), coeff in quantum_pieri(p, lam_prime, box).terms.items()
            if not (d == 0 and mu == lam)
        ]
        ops[lam] = linalg.mat_combine(corrections, linalg.mat_mul(E[p], ops[lam_prime]))
    return ops


def mult_operator(a: ClassVector, q_value=1) -> Matrix:
    """Matrix of quantum multiplication by the class a at the given q."""
    ops = mult_operators(a.box, q_value)
    n = len(schubert_basis(a.box))
    terms = [(coeff * q_value**qp, ops[lam]) for (lam, qp), coeff in a.terms.items()]
    return linalg.mat_combine(terms, linalg.zeros(n, n))


def sigma_e_polynomial(m: int, k: int) -> dict[tuple[int, ...], int]:
    """sigma_m = h_m as a polynomial in e_1..e_k, from sum (-1)^i e_i h_{m-i} = 0."""
    if m < 0:
        return {}
    table: list[dict[tuple[int, ...], int]] = [{(0,) * k: 1}]
    for mm in range(1, m + 1):
        acc: dict[tuple[int, ...], int] = {}
        for i in range(1, min(mm, k) + 1):
            sign = (-1) ** (i + 1)
            for expo, coeff in table[mm - i].items():
                new = expo[: i - 1] + (expo[i - 1] + 1,) + expo[i:]
                acc[new] = acc.get(new, 0) + sign * coeff
        table.append({e: c for e, c in acc.items() if c})
    return table[m]


def evaluate_e_polynomials(polys, generators: dict[int, Matrix]) -> list[Matrix]:
    """Evaluate polynomials in e_1..e_k on commuting matrices, generators[p]
    standing for e_p.  A monomial e_1^a_1 ... e_k^a_k is read as a word and
    built from its longest prefix already built, by any of the polynomials,
    so monomials that share a prefix share its products."""
    dim = len(generators[1])
    built: dict[tuple[int, ...], Matrix] = {}
    out = []
    for poly in polys:
        terms = []
        for expo, coeff in poly.items():
            prefix, term = [0] * len(expo), None
            for p, count in enumerate(expo, start=1):
                for _ in range(count):
                    prefix[p - 1] += 1
                    key = tuple(prefix)
                    if key not in built:
                        factor = generators[p]
                        built[key] = factor if term is None else linalg.mat_mul(factor, term)
                    term = built[key]
            terms.append((coeff, linalg.identity(dim) if term is None else term))
        out.append(linalg.mat_combine(terms, linalg.zeros(dim, dim)))
    return out


def presentation_check(box: Box, q_value=1) -> bool:
    """Verify sigma_{n-k+1} = ... = sigma_{n-1} = 0 and sigma_n = (-1)^{k+1} q."""
    n, k = box.n, box.k
    polys = [sigma_e_polynomial(m, k) for m in range(n - k + 1, n + 1)]
    *vanishing, top = evaluate_e_polynomials(polys, _pieri_matrices(box, q_value))
    if not all(map(linalg.is_zero_matrix, vanishing)):
        return False
    expected = [((-1) ** k * q_value, linalg.identity(len(top)))]
    return linalg.is_zero_matrix(linalg.mat_combine(expected, top))


def graded_pieces(box: Box) -> dict[int, tuple[Partition, ...]]:
    """Partition of the Schubert basis into residue classes of degree mod n."""
    pieces: dict[int, list[Partition]] = {i: [] for i in range(box.n)}
    for lam in schubert_basis(box):
        pieces[size(lam) % box.n].append(lam)
    return {i: tuple(piece) for i, piece in pieces.items()}


def restrict_to_piece(op: Matrix, piece, box: Box) -> Matrix:
    """Restriction of an operator to the span of the given basis partitions."""
    idx = basis_index(box)
    cols = [idx[lam] for lam in piece]
    inside = set(cols)
    for c in cols:
        for r in range(len(op)):
            if op[r][c] and r not in inside:
                raise InvalidInputError("operator does not preserve the requested piece")
    return [[op[r][c] for c in cols] for r in cols]


def char_poly_on_piece(op: Matrix, piece, box: Box) -> UniPoly:
    """Exact monic characteristic polynomial of the restriction to a piece."""
    return linalg.charpoly(restrict_to_piece(op, piece, box))


def pairing_matrix(box: Box) -> Matrix:
    """Poincare pairing on the Schubert basis: <s_lam, s_mu> = [mu = dual(lam)]."""
    basis = schubert_basis(box)
    idx = basis_index(box)
    mat = linalg.zeros(len(basis), len(basis))
    for i, lam in enumerate(basis):
        mat[i][idx[box.dual(lam)]] = 1
    return mat


def sigma1_triple_integral(lam: Partition, mu: Partition, box: Box) -> int:
    """Integral over X of s_lam * s_mu * s_1 (classical cup product)."""
    return 1 if box.dual(mu) in vertical_strip_additions(lam, 1, box) else 0


def commuting(ops: list[Matrix]) -> bool:
    return all(
        linalg.mat_mul(a, b) == linalg.mat_mul(b, a) for i, a in enumerate(ops) for b in ops[i + 1 :]
    )


def trace_form_gram(ops: list[Matrix]) -> Matrix:
    """Gram matrix trace(ops[a] ops[b]) of a regular representation, in O(d^3).

    ops[c] must be multiplication by the c-th basis element, written in that
    same basis.  Column b of ops[a] is then the product of basis elements a
    and b, so ops[a] ops[b] = sum_c ops[a][c][b] ops[c], and row a of the Gram
    matrix is t^T ops[a] with t_c = trace(ops[c]).
    """
    d = len(ops)
    if any(len(op) != d for op in ops):
        raise InvalidInputError("trace-form Gram needs one d x d operator per basis element")
    t = [linalg.trace(op) for op in ops]
    # the matrix with rows ops[a][c] (over a), weighted by t_c, summed over c
    return linalg.mat_combine([(tc, [op[c] for op in ops]) for c, tc in enumerate(t)])


def semisimple_test(
    ops: list[Matrix], pairing: Matrix | None = None, commuting_generators: list[Matrix] | None = None
) -> bool:
    """Trace-form criterion: the algebra spanned by the commuting multiplication
    operators is semisimple iff the Gram matrix trace(ops_i ops_j) is nonsingular.

    The operators must form the regular representation (ops[c] multiplies by
    the c-th basis element, in that basis), so that ops[a] ops[b] =
    sum_c ops[a][c][b] ops[c] and the Gram matrix is t^T ops[a] row by row,
    t_c = trace(ops[c]): O(d^3) instead of d^2 trace products.

    Commutativity is asserted, not assumed: on all pairs, or only on
    commuting_generators when every operator is a polynomial in them (the
    Pieri matrices of Gr(k, n), e_1..e_3 of a section ring).  The Gram matrix
    splits by residue of degree mod deg q, so det_bareiss factors it by blocks.
    """
    if not commuting(ops if commuting_generators is None else commuting_generators):
        raise InvalidInputError("multiplication operators do not commute")
    if pairing is not None:
        for op in ops:
            left = linalg.mat_mul([list(r) for r in zip(*op)], pairing)
            right = linalg.mat_mul(pairing, op)
            if left != right:
                raise InvalidInputError("operators are not self-adjoint for the pairing")
    return linalg.det_bareiss(trace_form_gram(ops)) != 0


def qh_semisimple(box: Box, q_value=1) -> bool:
    """Trace-form semisimplicity of QH(Gr(k, n)) at the given q.

    mult_operators builds every operator as a polynomial in the Pieri
    matrices e_1..e_k, so commutativity is asserted on those generators.
    """
    ops = mult_operators(box, q_value)
    generators = list(_pieri_matrices(box, q_value).values())
    return semisimple_test([ops[lam] for lam in schubert_basis(box)], commuting_generators=generators)
