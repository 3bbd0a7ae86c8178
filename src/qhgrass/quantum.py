"""Quantum cohomology of Gr(k, n) and of its sections as one graded algebra.

GradedAlgebra is a graded Frobenius algebra with exact rational coefficients,
generated by e_1..e_k, the classes sigma_{1^p} (Chern classes of the dual
tautological subbundle).  It holds the basis labels and their degrees, the
degree r of the quantum parameter q and the exact rational q_value that its
matrices specialize q to (default 1), the e-operators, the Poincare pairing
and the multiplication operator of every label that has one.  It has two
constructors: grassmannian(box) for Gr(k, n), and section.build_ring for a
smooth hyperplane section of Gr(3, n).

The Pieri matrices P_p = pieri_matrix(box, p, q_value) are the one source of
Pieri images for both.  Column lam of P_p is the quantum Pieri rule

    sigma_{1^p} * sigma_lam = sum_mu sigma_mu + q sum_nu sigma_nu,

where mu ranges over additions of p cells to lam with no two in the same row,
and nu over partitions of |lam| + p - n whose transpose interlaces the
transpose of lam shifted down by one (possible only when lam_1 = n - k); q has
degree n.  At q_value = 0 the same function gives the classical cup product
C_p.  Every q_value is filled from the same entries (row, col, q power),
which pieri_entries reads off one quantum_pieri sweep over the Schubert basis
per (box, p) and caches, so P_p and C_p share that sweep.  grassmannian takes
P_1..P_k as its e-operators, and the section ring writes its own as products
of P_p, C_p and C_1 (see section).

GradedAlgebra's constructor asserts that e_1..e_k commute (require_commuting),
for both constructors, and that is the only place the certificate is
checked.  Label operators come from one triangular Pieri recursion
(mult_operators), run the first time label_ops is read.  It relies on that
assertion and reads each image it needs off a column of an e-operator, so no
Littlewood-Richardson rule is needed; the Giambelli route lives with the
tests as an independent check, so the quantum Giambelli property is a
checked invariant rather than an input.  That recursion and the polynomial
evaluation in e_1..e_k (evaluate_e_polynomials) run on sparse rows, since
the operators are mostly zero, and hand back dense matrices.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from . import linalg
from .errors import InternalConsistencyError, InvalidInputError, UndeterminedProductError
from .linalg import Matrix
from .partitions import Box, Partition, box_partitions, canonical, size, transpose
from .polynomials import UniPoly


@lru_cache(maxsize=None)
def schubert_basis(box: Box) -> tuple[Partition, ...]:
    """Schubert basis ordered by degree, lexicographically decreasing within."""
    return tuple(sorted(box_partitions(box.k, box.n), key=lambda lam: (size(lam), tuple(-a for a in lam))))


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


def quantum_pieri(p: int, lam: Partition, box: Box) -> dict[tuple[Partition, int], int]:
    """sigma_{1^p} * sigma_lam as {(mu, q power): 1}; all coefficients are 1."""
    if not 1 <= p <= box.k:
        raise InvalidInputError(f"Pieri index p={p} outside [1, {box.k}]")
    lam = box.require(lam)
    terms = {(mu, 0): 1 for mu in vertical_strip_additions(lam, p, box)}
    terms.update({(nu, 1): 1 for nu in quantum_rim_partitions(lam, p, box)})
    return terms


@lru_cache(maxsize=None)
def pieri_entries(box: Box, p: int) -> tuple[tuple[int, int, int], ...]:
    """The nonzero entries (row, col, q power) of sigma_{1^p} * (-) over the
    Schubert basis, from one quantum_pieri sweep; every coefficient is 1."""
    basis = schubert_basis(box)
    index = {lam: i for i, lam in enumerate(basis)}
    return tuple((index[mu], col, d) for col, lam in enumerate(basis) for mu, d in quantum_pieri(p, lam, box))


@lru_cache(maxsize=None)
def pieri_matrix(box: Box, p: int, q_value=1) -> tuple[tuple, ...]:
    """Matrix of sigma_{1^p} * (-) over the Schubert basis at the given q:
    column lam is quantum_pieri(p, lam) with q^d read as q_value^d.  At
    q_value = 0 it is the classical Pieri rule, cup product by sigma_{1^p}."""
    dim = len(schubert_basis(box))
    mat = linalg.zeros(dim, dim)
    for row, col, d in pieri_entries(box, p):
        mat[row][col] = q_value**d if d else 1
    return tuple(map(tuple, mat))


class GradedAlgebra:
    """A graded Frobenius algebra generated by e_1..e_k, at q = q_value.

    A constructor supplies the basis, the degree r of q, the e-operators and
    the pairing; column j of e_ops[p] is the Pieri image e_p * basis[j] at
    q = q_value.  The constructor asserts that the e-operators commute, the
    one place that is checked.  label_ops, the multiplication operator of every partition
    label, comes from mult_operators when first read.  grassmannian builds
    Gr(k, n); section.SectionRing, which overrides label_degree, builds a
    hyperplane section.
    """

    def __init__(self, box: Box, basis, r: int, q_value, e_ops: dict[int, Matrix], pairing: Matrix):
        self.box, self.k = box, box.k
        self.basis = tuple(basis)
        self.index = {lab: i for i, lab in enumerate(self.basis)}
        self.r, self.q_value = r, q_value
        require_commuting(e_ops)
        self.e_ops = e_ops
        self.pairing = pairing

    def label_degree(self, lab) -> int:
        return size(lab)

    @property
    def label_ops(self) -> dict:
        """Multiplication operator of every partition label (mult_operators)."""
        return mult_operators(self)

    def mult_operator(self, coords) -> Matrix:
        """Multiplication operator of the element with these basis coordinates."""
        ops, terms = self.label_ops, []
        for coeff, lab in zip(coords, self.basis):
            if not coeff:
                continue
            if lab not in ops:
                raise UndeterminedProductError(f"multiplication by {lab} is undetermined by the source")
            terms.append((coeff, ops[lab]))
        return linalg.mat_combine(terms, linalg.zeros(len(self.basis), len(self.basis)))

    def residue_piece(self, residue: int = 0) -> tuple:
        """Labels whose degree is congruent to the residue mod r."""
        return tuple(lab for lab in self.basis if self.label_degree(lab) % self.r == residue)

    def e_charpoly(self, power: int, with_e2: bool = False) -> UniPoly:
        """Characteristic polynomial of e_1^power (optionally * e_2) on the
        residue-0 piece."""
        cols = [self.index[lab] for lab in self.residue_piece(0)]
        return e_power_charpoly(self.e_ops, cols, power, with_e2)


def restrict_to_coords(op: Matrix, cols: list[int]) -> Matrix:
    """Restriction of an operator to the span of these basis coordinates,
    which it must preserve."""
    inside = set(cols)
    if any(op[r][c] for c in cols for r in range(len(op)) if r not in inside):
        raise InvalidInputError("operator does not preserve the requested piece")
    return [[op[r][c] for c in cols] for r in cols]


def e_power_charpoly(e_ops: dict[int, Matrix], cols: list[int], power: int, with_e2: bool = False) -> UniPoly:
    """Characteristic polynomial of e_1^power (optionally * e_2) on the span
    of the basis coordinates cols.  It reads only e_ops[1] (and e_ops[2]), so
    a caller holding just those needs no whole algebra."""
    op = linalg.mat_pow(e_ops[1], power)
    if with_e2:
        op = linalg.mat_mul(op, e_ops[2])
    return linalg.charpoly(restrict_to_coords(op, cols))


@lru_cache(maxsize=None)
def grassmannian(box: Box, q_value=1) -> GradedAlgebra:
    """QH(Gr(k, n)) at the given q: the Schubert basis, q of degree n, the
    Pieri matrices, and the pairing <s_lam, s_mu> = [mu = dual(lam)]."""
    basis = schubert_basis(box)
    e_ops = {p: [list(row) for row in pieri_matrix(box, p, q_value)] for p in range(1, box.k + 1)}
    index = {lam: i for i, lam in enumerate(basis)}
    pairing = linalg.zeros(len(basis), len(basis))
    for i, lam in enumerate(basis):
        pairing[i][index[box.dual(lam)]] = 1
    return GradedAlgebra(box, basis, box.n, q_value, e_ops, pairing)


@lru_cache(maxsize=None)
def mult_operators(alg: GradedAlgebra) -> dict:
    """Multiplication operator of every partition label, by triangular recursion.

    Removing the first column of lam (p = len(lam) cells) leaves lam', and
    e_p * lam' = lam + sum c q^d mu, where every other mu of the same degree
    is lexicographically smaller and every q term has lower degree.  That
    image is column lam' of E_p = e_ops[p], read at q = q_value.  So

        L_lam = E_p L_lam' - sum c q^d L_mu

    fills the table in one pass in (degree, lex) order, checking that lam has
    coefficient 1 and that every mu is already built.  By induction L_lam is
    a polynomial in e_1..e_k that sends the unit to lam; since e_1..e_k
    commute, which GradedAlgebra's constructor asserted, it is multiplication
    by lam on every class the unit reaches.  Labels that are not
    partitions (the section's beta) get no operator.  The recursion runs on
    sparse rows (linalg.sparse_mul), and the table holds each operator made
    dense once, in basis order.
    """
    dim = len(alg.basis)
    e_rows = {p: linalg.sparse_rows(op) for p, op in alg.e_ops.items()}
    ops = {(): linalg.sparse_rows(linalg.identity(dim))}
    partitions = [lab for lab in alg.basis if isinstance(lab, tuple) and lab]
    for lam in sorted(partitions, key=lambda lab: (size(lab), lab)):
        p, lam_prime = len(lam), canonical(tuple(a - 1 for a in lam))
        col = alg.index.get(lam_prime)
        image = {lab: row[col] for lab, row in zip(alg.basis, alg.e_ops[p]) if col is not None and row[col]}
        if image.pop(lam, 0) != 1 or lam_prime not in ops or any(mu not in ops for mu in image):
            raise InternalConsistencyError(
                f"inconsistent Pieri images: e_{p} * s{lam_prime} does not determine s{lam}"
            )
        corrections = [(-coeff, ops[mu]) for mu, coeff in image.items()]
        ops[lam] = linalg.sparse_combine(corrections, linalg.sparse_mul(e_rows[p], ops[lam_prime]))
    return {lab: linalg.dense(ops[lab], dim) for lab in alg.basis if lab in ops}


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
    so monomials that share a prefix share its products, each one sparse_mul
    on sparse rows; only the evaluated polynomials are made dense."""
    dim = len(generators[1])
    rows = {p: linalg.sparse_rows(op) for p, op in generators.items()}
    unit = linalg.sparse_rows(linalg.identity(dim))
    built: dict[tuple[int, ...], list[dict]] = {}
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
                        built[key] = rows[p] if term is None else linalg.sparse_mul(rows[p], term)
                    term = built[key]
            terms.append((coeff, unit if term is None else term))
        out.append(linalg.dense(linalg.sparse_combine(terms, [{} for _ in range(dim)]), dim))
    return out


def presentation_check(box: Box, q_value=1) -> bool:
    """Verify sigma_{n-k+1} = ... = sigma_{n-1} = 0 and sigma_n = (-1)^{k+1} q."""
    n, k = box.n, box.k
    polys = [sigma_e_polynomial(m, k) for m in range(n - k + 1, n + 1)]
    generators = {p: pieri_matrix(box, p, q_value) for p in range(1, k + 1)}
    *vanishing, top = evaluate_e_polynomials(polys, generators)
    if not all(map(linalg.is_zero_matrix, vanishing)):
        return False
    expected = [((-1) ** k * q_value, linalg.identity(len(top)))]
    return linalg.is_zero_matrix(linalg.mat_combine(expected, top))


def commuting(ops: list[Matrix]) -> bool:
    return all(
        linalg.mat_mul(a, b) == linalg.mat_mul(b, a) for i, a in enumerate(ops) for b in ops[i + 1 :]
    )


def require_commuting(e_ops: dict[int, Matrix]) -> None:
    """Raise unless the e-operators e_1..e_k commute."""
    if not commuting(list(e_ops.values())):
        raise InternalConsistencyError("inconsistent Pieri images: e_1..e_k do not commute")


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


def semisimple_test(ops: list[Matrix]) -> bool:
    """Trace-form criterion: a commutative algebra is semisimple iff the Gram
    matrix trace(ops_i ops_j) of its regular representation is nonsingular.

    ops[c] multiplies by the c-th basis element, in that basis, and the
    operators commute; that is asserted on generators (GradedAlgebra's
    constructor on e_1..e_k, perp_subalgebra_semisimple on the perp piece's generators and
    e_1^r).  The Gram matrix splits by residue of degree mod deg q, so
    det_bareiss factors it by blocks.
    """
    return linalg.det_bareiss(trace_form_gram(ops)) != 0


def qh_semisimple(box: Box, q_value=1) -> bool:
    """Trace-form semisimplicity of QH(Gr(k, n)) at the given q."""
    alg = grassmannian(box, q_value)
    ops = alg.label_ops
    return semisimple_test([ops[lam] for lam in alg.basis])
