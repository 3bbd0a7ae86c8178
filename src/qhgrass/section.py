"""Quantum cohomology of smooth hyperplane sections Y of Gr(3, n), n in {6, 7, 8}.

The ambient part of H*(Y) is modeled as H*(X) / ker(cup sigma_1), with one
primitive middle class beta when the middle Betti number of Y exceeds the
ambient rank there (n = 6 and n = 8).  Products are driven entirely by the
section Pieri rule

    e_p * j(s_lam) = j(s_{1^p} cup s_lam)
                     + j(s_{1^p} star (s_lam cup s_1) - s_{1^p} cup (s_lam cup s_1)),
    e_p * beta = 0,

whose right-hand side only needs ambient Pieri operations.  The quantum
parameter q_Y has degree n - 1; matrices specialize it (default 1).

The multiplication operator of every ambient basis class is solved degree by
degree from these identities (SectionRing._operators_for_degree).  The solve
runs on sparse operators, rows as {column: value}, because a label operator
is about 9 % nonzero for n = 8; each result is stored as a dense matrix.  The
Poincare pairing <a, b> = integral over X of s_a s_b s_1 is evaluated only
where |a| + |b| = dim Y, since it vanishes by degree elsewhere.

beta * beta is not determined by the source material and is deliberately not
modeled; every implemented operator is multiplication by a class generated by
e_1, e_2, e_3, under which beta maps to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import InternalConsistencyError, InvalidInputError, UndeterminedProductError
from .linalg import Matrix
from .partitions import Box, Partition, box_partitions_of_size, size
from .polynomials import UniPoly
from .quantum import (
    ClassVector,
    cup_e,
    evaluate_e_polynomials,
    sigma1_triple_integral,
    sigma_e_polynomial,
    star_e,
)

BETA = "beta"

SUPPORTED = {(3, 6), (3, 7), (3, 8)}

# dim H_prim(Y): one middle primitive class except in the odd-dimensional case
PRIMITIVE_DIM = {(3, 6): 1, (3, 7): 0, (3, 8): 1}


@dataclass
class SectionClass:
    """Linear combination of section basis labels with explicit q_Y powers."""

    ring: "SectionRing"
    terms: dict[tuple, Fraction | int] = field(default_factory=dict)

    def __post_init__(self):
        self.terms = {k: v for k, v in self.terms.items() if v}

    def __add__(self, other: "SectionClass") -> "SectionClass":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return SectionClass(self.ring, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "SectionClass":
        return SectionClass(self.ring, {k: c * v for k, v in self.terms.items()})

    def shift_q(self, d: int) -> "SectionClass":
        return SectionClass(self.ring, {(lab, qp + d): v for (lab, qp), v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, SectionClass) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> int | None:
        degs = {self.ring.label_degree(lab) + self.ring.r_y * qp for (lab, qp) in self.terms}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else 0

    def to_vector(self, q_value=1) -> list:
        coords = [0] * len(self.ring.basis)
        for (lab, qp), coeff in self.terms.items():
            coords[self.ring.index[lab]] += coeff * q_value**qp
        return coords


class SectionRing:
    """Basis, relations and Pieri operators for the section of Gr(k, n)."""

    def __init__(self, k: int, n: int, q_value=1):
        if (k, n) not in SUPPORTED:
            raise InvalidInputError(f"no section ring for (k, n) = ({k}, {n})")
        self.k, self.n = k, n
        self.box = Box(k, n)
        self.q_value = q_value
        self.r_y = n - 1
        self.dim_y = k * (n - k) - 1
        self.prim_dim = PRIMITIVE_DIM[(k, n)]
        self._pieri: dict[tuple[int, object], SectionClass] = {}
        self._build_quotient()
        self._build_basis()
        self._build_operators()
        self._build_pairing()
        self._build_label_ops()

    # -- quotient structure ------------------------------------------------

    def _build_quotient(self):
        """Per degree, split the Schubert classes into quotient basis members
        and relations expressing the discarded ones (the lexicographically
        largest kernel representatives) through smaller basis members."""
        self.degree_basis: dict[int, tuple[Partition, ...]] = {}
        self.relations: dict[Partition, dict[Partition, Fraction]] = {}
        for m in range(self.dim_y + 1):
            parts = box_partitions_of_size(self.box.k, self.box.n, m)
            above = box_partitions_of_size(self.box.k, self.box.n, m + 1)
            row_index = {mu: i for i, mu in enumerate(above)}
            mat = linalg.zeros(len(above), len(parts))
            for col, lam in enumerate(parts):
                for (mu, qp), coeff in cup_e(1, ClassVector.schubert(self.box, lam)).terms.items():
                    mat[row_index[mu]][col] += coeff
            kernel = linalg.kernel_basis(mat) if above else []
            pivots = []
            for vec in kernel:
                lead = next(i for i, c in enumerate(vec) if c != 0)
                pivots.append(lead)
                rel = {
                    parts[j]: linalg.exact_div(-vec[j], vec[lead])
                    for j in range(lead + 1, len(parts))
                    if vec[j]
                }
                self.relations[parts[lead]] = rel
            self.degree_basis[m] = tuple(p for i, p in enumerate(parts) if i not in pivots)

    def _build_basis(self):
        labels: list = []
        for m in range(self.dim_y + 1):
            labels.extend(self.degree_basis[m])
            if self.prim_dim and m == self.dim_y // 2:
                labels.append(BETA)
        self.basis = tuple(labels)
        self.index = {lab: i for i, lab in enumerate(labels)}
        expected = {(3, 6): 18, (3, 7): 30, (3, 8): 51}[(self.k, self.n)]
        if len(self.basis) != expected:
            raise InternalConsistencyError(
                f"section ring dimension {len(self.basis)}, expected {expected}"
            )

    def label_degree(self, lab) -> int:
        return self.dim_y // 2 if lab == BETA else size(lab)

    def reduce(self, x: ClassVector) -> SectionClass:
        """Push an ambient class to the quotient, keeping q powers."""
        out: dict[tuple, Fraction | int] = {}

        def add(lam, qp, coeff):
            if size(lam) > self.dim_y:
                # top ambient degree restricts to zero on Y
                if size(lam) > self.dim_y + 1:
                    raise InternalConsistencyError("class beyond the ambient top degree")
                return
            if lam in self.relations:
                for mu, c in self.relations[lam].items():
                    add(mu, qp, coeff * c)
            else:
                key = (lam, qp)
                out[key] = out.get(key, 0) + coeff

        for (lam, qp), coeff in x.terms.items():
            add(lam, qp, coeff)
        return SectionClass(self, out)

    # -- products ----------------------------------------------------------

    def pieri_on_label(self, p: int, lab) -> SectionClass:
        """e_p * (basis label), q symbolic.  Computed once per (p, label) and
        shared between callers, which must not mutate it."""
        if not 1 <= p <= self.k:
            raise InvalidInputError(f"Pieri index p={p} outside [1, {self.k}]")
        if lab == BETA:
            return SectionClass(self)
        if (p, lab) not in self._pieri:
            lam = ClassVector.schubert(self.box, lab)
            classical = cup_e(p, lam)
            lam_h = cup_e(1, lam)
            quantum = star_e(p, lam_h) - cup_e(p, lam_h)
            if any(qp == 0 for (_, qp) in quantum.terms):
                raise InternalConsistencyError("classical parts did not cancel in section Pieri")
            self._pieri[(p, lab)] = self.reduce(classical + quantum)
        return self._pieri[(p, lab)]

    def unit(self) -> SectionClass:
        return SectionClass(self, {((), 0): 1})

    def schubert(self, lam, q_power: int = 0, coeff=1) -> SectionClass:
        return self.reduce(ClassVector.schubert(self.box, lam, q_power, coeff))

    def beta(self) -> SectionClass:
        if not self.prim_dim:
            raise InvalidInputError(f"no primitive class for (3, {self.n})")
        return SectionClass(self, {(BETA, 0): 1})

    def _build_operators(self):
        dim = len(self.basis)
        self.e_ops: dict[int, Matrix] = {}
        for p in range(1, self.k + 1):
            mat = linalg.zeros(dim, dim)
            for col, lab in enumerate(self.basis):
                image = self.pieri_on_label(p, lab)
                for (mu, qp), coeff in image.terms.items():
                    mat[self.index[mu]][col] += coeff * self.q_value**qp
            self.e_ops[p] = mat

    # -- pairing and integration --------------------------------------------

    def _build_pairing(self):
        """<a, b> is the integral over X of s_a s_b s_1, which vanishes unless
        |a| + |b| = dim Y; beta pairs to 1 with itself and 0 with the rest."""
        dim = len(self.basis)
        mat = linalg.zeros(dim, dim)
        for i, a in enumerate(self.basis):
            for j, b in enumerate(self.basis):
                if a == BETA or b == BETA:
                    mat[i][j] = 1 if (a == BETA and b == BETA) else 0
                elif size(a) + size(b) == self.dim_y:
                    mat[i][j] = sigma1_triple_integral(a, b, self.box)
        self.pairing = mat
        if linalg.det_bareiss(mat) == 0:
            raise InternalConsistencyError("section Poincare pairing is degenerate")

    def integral(self, x: SectionClass):
        """Integral over Y: coefficient of the top-degree class (q discarded
        after specialization)."""
        (top,) = self.degree_basis[self.dim_y]
        coords = x.to_vector(self.q_value)
        return coords[self.index[top]]

    def pair(self, x: SectionClass, y: SectionClass):
        xv = x.to_vector(self.q_value)
        yv = y.to_vector(self.q_value)
        return sum(a * b for a, b in zip(xv, linalg.mat_vec(self.pairing, yv)))

    # -- multiplication operators of the basis classes -----------------------

    def _build_label_ops(self):
        """Multiplication operators of every ambient basis class, degree by
        degree.  The solve works on sparse copies of the operators (rows as
        {column: value}; a label operator is about 9 % nonzero for n = 8),
        which are dropped when the build ends; label_ops keeps the dense ones.
        """
        dim = len(self.basis)
        self.label_ops: dict[Partition, Matrix] = {(): linalg.identity(dim)}
        sparse = {(): [{i: 1} for i in range(dim)]}
        e_sparse = {p: _cleaned([dict(enumerate(row)) for row in op]) for p, op in self.e_ops.items()}
        for m in range(1, self.dim_y + 1):
            for lam, rows in self._operators_for_degree(m, sparse, e_sparse).items():
                sparse[lam] = rows
                self.label_ops[lam] = [[row.get(j, 0) for j in range(dim)] for row in rows]

    def _operators_for_degree(self, m: int, sparse: dict, e_sparse: dict) -> dict:
        """Sparse multiplication operators of all degree-m basis classes.

        Every identity e_p * j(s_mu) = sum of basis classes, with mu a basis
        class of degree m - p, is an operator equation R . X = K whose
        degree-m terms X are the unknowns and whose known side
        K = e_p L_mu - sum c L_lab collects the lower-degree terms.  K is one
        sparse product over the nonzeros of e_p and of the rows of L_mu, less
        the sparse lower operators.  Only the small system [R | I] is
        row-reduced; the identity block records each reduced row as a
        combination of equations, so a pivot row gives its unknown as that
        sparse combination of known sides.  The ring is generated by
        e_1..e_k, so the equations determine the unknowns; a row whose R part
        vanishes states that its combination of known sides is zero, which is
        a free check on the whole Pieri implementation.
        """
        unknowns = self.degree_basis[m]
        uidx = {lam: i for i, lam in enumerate(unknowns)}
        rows: list[list] = []
        knowns: list[list[dict]] = []
        for p in range(1, self.k + 1):
            if m - p < 0:
                continue
            for mu in self.degree_basis[m - p]:
                row = [0] * len(unknowns)
                known = [{} for _ in self.basis]
                for acc, erow in zip(known, e_sparse[p]):
                    for i, x in erow.items():
                        for j, y in sparse[mu][i].items():
                            acc[j] = acc.get(j, 0) + x * y
                for (lab, qp), coeff in self.pieri_on_label(p, mu).terms.items():
                    c = coeff * self.q_value**qp
                    if qp == 0 and self.label_degree(lab) == m:
                        row[uidx[lab]] += c
                    elif c:
                        _add_scaled(known, -c, sparse[lab])
                rows.append(row)
                knowns.append(_cleaned(known))
        count = len(unknowns)
        tagged = [row + [int(i == j) for j in range(len(rows))] for i, row in enumerate(rows)]
        pivots, reduced = linalg.rref(tagged)
        if sum(1 for col in pivots if col < count) != count:
            raise InternalConsistencyError(f"operators in degree {m} are underdetermined")
        solved = {}
        for col, red in zip(pivots, reduced):
            combined = [{} for _ in self.basis]
            for c, known in zip(red[count:], knowns):
                if c:
                    _add_scaled(combined, c, known)
            combined = _cleaned(combined)
            if col < count:
                solved[unknowns[col]] = combined
            elif any(combined):
                raise InternalConsistencyError(
                    f"inconsistent Pieri operator equations in degree {m}"
                )
        return solved

    def mult_operator(self, coords) -> Matrix:
        """Multiplication operator of an ambient element in basis coordinates."""
        dim = len(self.basis)
        terms = []
        for coeff, lab in zip(coords, self.basis):
            if not coeff:
                continue
            if lab == BETA:
                raise UndeterminedProductError(
                    "multiplication by the primitive class is undetermined by the source"
                )
            terms.append((coeff, self.label_ops[lab]))
        return linalg.mat_combine(terms, linalg.zeros(dim, dim))

    def mult_operator_of_label(self, lab) -> Matrix:
        coords = [0] * len(self.basis)
        coords[self.index[lab]] = 1
        return self.mult_operator(coords)

    # -- graded pieces -------------------------------------------------------

    def residue_piece(self, residue: int = 0) -> tuple:
        """Labels whose degree is congruent to the residue mod r_Y."""
        return tuple(lab for lab in self.basis if self.label_degree(lab) % self.r_y == residue)


def _add_scaled(acc: list[dict], c, rows: list[dict]) -> None:
    """acc += c * rows, over the nonzeros of rows."""
    for out, row in zip(acc, rows):
        for j, y in row.items():
            out[j] = out.get(j, 0) + c * y


def _cleaned(rows: list[dict]) -> list[dict]:
    """The rows without zeros and with integral Fractions made ints."""
    return [{j: linalg._integral(x) for j, x in row.items() if x} for row in rows]


@lru_cache(maxsize=None)
def build_ring(k: int, n: int, q_value=1) -> SectionRing:
    return SectionRing(k, n, q_value)


def ambient_basis(k: int, n: int):
    """Graded quotient basis and the relations for excluded classes."""
    ring = build_ring(k, n)
    return ring.degree_basis, ring.relations


def _restrict(ring: SectionRing, op: Matrix, labels) -> Matrix:
    cols = [ring.index[lab] for lab in labels]
    inside = set(cols)
    for c in cols:
        for r in range(len(op)):
            if op[r][c] and r not in inside:
                raise InvalidInputError("operator does not preserve the requested piece")
    return [[op[r][c] for c in cols] for r in cols]


def section_charpoly(k: int, n: int, power: int, with_e2: bool = False) -> UniPoly:
    """Characteristic polynomial of e_1^power (optionally * e_2) on A^0(Y)."""
    ring = build_ring(k, n)
    op = linalg.mat_pow(ring.e_ops[1], power)
    if with_e2:
        op = linalg.mat_mul(op, ring.e_ops[2])
    return linalg.charpoly(_restrict(ring, op, ring.residue_piece(0)))


# The explicit lifts of the presentation relations in e_1, e_2, e_3, printed
# in the source for the quantum Lefschetz identities; keys are exponent
# vectors (a_1, a_2, a_3) for e_1^{a_1} e_2^{a_2} e_3^{a_3}.
H6 = {
    (6, 0, 0): 1, (4, 1, 0): -5, (2, 2, 0): 6, (3, 0, 1): 4,
    (0, 3, 0): -1, (1, 1, 1): -6, (0, 0, 2): 1,
}
H7 = {
    (7, 0, 0): 1, (5, 1, 0): -6, (3, 2, 0): 10, (4, 0, 1): 5,
    (1, 3, 0): -4, (2, 1, 1): -12, (0, 2, 1): 3, (1, 0, 2): 3,
}
H8 = {
    (8, 0, 0): 1, (6, 1, 0): -7, (4, 2, 0): 15, (5, 0, 1): 6,
    (2, 3, 0): -10, (3, 1, 1): -20, (0, 4, 0): 1, (1, 2, 1): 12,
    (2, 0, 2): 6, (0, 1, 2): -3,
}
_H_POLYS = {6: H6, 7: H7, 8: H8}


def lefschetz_relation_check(n: int) -> bool:
    """Verify h_{n-1} = 0 and h_n = q e_1 in the section operator algebra."""
    if n not in (7, 8):
        raise InvalidInputError("quantum Lefschetz identities implemented for n in {7, 8}")
    for m, poly in _H_POLYS.items():
        if poly != sigma_e_polynomial(m, 3):
            raise InternalConsistencyError(f"stored h_{m} differs from the derived relation")
    ring = build_ring(3, n)
    h_prev, h_top = evaluate_e_polynomials([_H_POLYS[n - 1], _H_POLYS[n]], ring.e_ops)
    dim = len(ring.basis)
    q_e1 = linalg.mat_combine([(ring.q_value, ring.e_ops[1])], linalg.zeros(dim, dim))
    return linalg.is_zero_matrix(h_prev) and h_top == q_e1


def radical_and_perp(k: int, n: int) -> tuple[list[list], list[list]]:
    """Radical of the section ring at q = 1 and the orthogonal complement of
    the radical inside the residue-0 piece, both as coordinate vectors."""
    ring = build_ring(k, n)
    dim = len(ring.basis)
    rad = linalg.kernel_basis(linalg.mat_pow(ring.e_ops[1], dim))
    piece = ring.residue_piece(0)
    constraints = []
    for u in rad:
        pu = linalg.mat_vec(ring.pairing, u)
        constraints.append([pu[ring.index[lab]] for lab in piece])
    if constraints:
        perp_coords = linalg.kernel_basis(constraints)
    else:
        perp_coords = linalg.identity(len(piece))
    perp = []
    for coords in perp_coords:
        v = [0] * dim
        for c, lab in zip(coords, piece):
            v[ring.index[lab]] = c
        perp.append(v)
    return rad, perp


def perp_subalgebra_basis(ring: SectionRing, perp: list[list]) -> list[list]:
    """Basis e_1^i * v over 0 <= i < r_Y and v in the perp space."""
    vectors = []
    current = [list(v) for v in perp]
    for _ in range(ring.r_y):
        vectors.extend([list(v) for v in current])
        current = [linalg.mat_vec(ring.e_ops[1], v) for v in current]
    return vectors


def perp_subalgebra_operators(ring: SectionRing, perp: list[list]) -> tuple[list, list]:
    """Multiplication operators of the subalgebra generated by the perp space
    and e_1, in the subalgebra's own coordinates (the basis of
    perp_subalgebra_basis, in that order), and its generators e_1 and the perp
    classes.

    The restriction of e_1 and of each perp generator is extracted once, and
    the remaining operators are products of those restrictions.
    """
    w = perp_subalgebra_basis(ring, perp)
    sub_dim = len(w)
    solver = linalg.ColumnSpanSolver(w)

    def restrict(full: Matrix) -> Matrix:
        cols = [solver.coords(linalg.mat_vec(full, wv)) for wv in w]
        return [list(row) for row in zip(*cols)]

    r_e1 = restrict(ring.e_ops[1])
    r_gen = [restrict(ring.mult_operator(list(v))) for v in perp]
    ops = []
    power = linalg.identity(sub_dim)
    for i in range(ring.r_y):
        ops.extend(linalg.mat_mul(power, g) for g in r_gen)
        power = linalg.mat_mul(r_e1, power)
    return ops, [r_e1] + r_gen


def perp_subalgebra_semisimple(k: int, n: int) -> tuple[bool, int, int]:
    """Trace-form test on the subalgebra generated by the perp space and e_1.

    Returns the verdict, the subalgebra's dimension and the dimension of the
    radical it was split from.
    """
    from .quantum import semisimple_test

    ring = build_ring(k, n)
    rad, perp = radical_and_perp(k, n)
    ops, generators = perp_subalgebra_operators(ring, perp)
    return semisimple_test(ops, commuting_generators=generators), len(ops), len(rad)


def full_ring_semisimple(k: int, n: int) -> bool:
    """Trace-form test on the whole section ring (only when beta is absent).
    Every label operator is solved as a polynomial in e_1, e_2, e_3
    (_build_label_ops), so commutativity is asserted on those three only."""
    ring = build_ring(k, n)
    if ring.prim_dim:
        raise UndeterminedProductError(
            "full-ring trace form needs beta * beta, which the source leaves undetermined"
        )
    from .quantum import semisimple_test

    ops = [ring.mult_operator_of_label(lab) for lab in ring.basis]
    return semisimple_test(ops, commuting_generators=[ring.e_ops[p] for p in (1, 2, 3)])


@dataclass(frozen=True)
class SemisimplicityReport:
    k: int
    n: int
    semisimple: bool | None
    method: str
    detail: str


def section_semisimplicity(k: int, n: int) -> SemisimplicityReport:
    """The verdict on QH(Y) for Y in Gr(3, n), by the route the case allows."""
    if (k, n) not in SUPPORTED:
        raise InvalidInputError(f"no section semisimplicity report for ({k}, {n})")
    if n == 6:
        # the Betti numbers alone decide it, read off the Hodge diamond
        from .hodge import section_profile
        from .screen import periodic_betti, screen

        profile = section_profile(k, n)
        verdict = screen(profile)
        if not verdict.is_witness:
            raise InternalConsistencyError("expected a Betti witness for the Gr(3,6) section")
        tb = periodic_betti(profile)
        return SemisimplicityReport(
            k, n, False, "betti-screen",
            f"tilde_b(1)={tb[1]} != tilde_b(-1)={tb[-1 % profile.index]}",
        )
    if n == 7:
        ok = full_ring_semisimple(k, n)
        return SemisimplicityReport(
            k, n, ok, "trace-form", "nondegenerate trace form on the 30-dimensional ring"
            if ok else "degenerate trace form",
        )
    ok, sub_dim, rad_dim = perp_subalgebra_semisimple(k, n)
    return SemisimplicityReport(
        k, n, ok, "trace-form+monodromy",
        f"nondegenerate trace form on the {sub_dim}-dimensional perp subalgebra; "
        f"{rad_dim}-dimensional radical semisimple by the external monodromy argument"
        if ok else "degenerate trace form on the perp subalgebra",
    )
