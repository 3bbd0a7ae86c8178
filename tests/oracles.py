"""Independent routes that the tests compare with the production code.

Nothing in qhgrass calls these.  Each repeats a production result by another
route:

- ClassVector, star_e, cup_e, pieri_on_label, reduce and vector are the
  symbolic Pieri layer: classes as {(label, q power): coeff} with q kept
  symbolic, and the section Pieri rule applied class by class.  symbolic_e_ops
  and symbolic_label_ops build the e-operators and the first-column recursion
  from those images; production reads both off the Pieri matrices.  The
  symbolic q powers are evaluated at q = 1, where production works, or at
  q = 0 for the classical half.  sigma1_triple_integral is the integral the
  section pairing reads off C_1.
- cup_matrix is the classical cup product C_p, the q-free terms of
  quantum_pieri; classical_grassmannian and classical_section_ring are the
  algebras at q = 0 (the cohomology rings), the latter on R C_p J, built
  from section._split_pieri's q-free half through the ring's own assembly.
  ring_with_e_ops puts other e-operators on a copy of a section ring.
- giambelli_expr, star_schubert and star multiply ambient classes through the
  Giambelli determinant in the Pieri operators; quantum.mult_operators uses
  the first-column Pieri recursion instead.
- pairing_q1 is the class-level pairing of QH(Gr(k, n)), and ambient_pairing
  its matrix on the Schubert basis; production gives only a section ring a
  pairing.  radical_by_power takes the radical of a graded algebra as the
  kernel of e_1^N, N its dimension, with its perp space P for a given pairing
  (perp_space; radical for Gr(k, n), with ambient_pairing);
  section.radical_and_perp takes only ker e_1 and certifies it by the
  pairing, which is nondegenerate on it.
- build_lifts and lift_operator write each section basis class as a
  polynomial in e_1..e_k and evaluate it on the e-operators; the section
  ring builds its label operators by the first-column Pieri recursion.
- perp_iso_check certifies A^0(X) = A^0_perp(Y) through cyclic generators.
- perp_route_semisimple decides the trace form of the subalgebra
  S = sum over i < r of e_1^i P generated by P and e_1 on P alone, by the
  det G_S identity: perp_piece_operators reads the p x p operators of P and
  e_1^r off forward_label_recursion seeded with the perp vectors, and
  quantum.semisimple_test takes their Gram matrix by definition.
  perp_subalgebra_basis and perp_subalgebra_operators build the whole of S,
  with one operator per basis vector e_1^i v_j.  Production decides S as
  A / ker e_1 from the shifted Gram matrix, the label run seeded with
  E_1^T t (section.perp_subalgebra_semisimple).
- betti_numbers reads the even Betti numbers of a section off its graded
  ring; section_semisimplicity takes them from the Hodge diamond.
- rank and solve are exact row reduction through linalg.rref.
  kernel_basis is the two-elimination kernel (rref of a, then rref of the
  free-column vectors); linalg.kernel_basis reads the same reduced basis off
  one elimination of a with its columns reversed.  mat_inverse
  (Gauss-Jordan) and ColumnSpanSolver, which solves for coordinates in an
  independent column family through one inverted subblock, are the solve
  route; perp_piece_operators reads coordinates off the pivots of an
  echelon basis instead.
- commuting_in_fractions takes each commutator ab - ba of the operators as
  given, Fraction entries included; quantum.commuting takes those of their
  integral multiples (linalg.integral_multiple), so its products run over
  the ints.
- label_ops is the dense operator of every partition label of an algebra,
  quantum.mult_operators made once per algebra and kept in a weak-keyed
  memo while the algebra lives; no command builds a label operator.
- mat_combine sums scaled dense matrices, the oracles' way to combine
  operators; production combines sparse rows with linalg.sparse_mul_sum.
  dense makes sparse rows a dense matrix, and dense_square a square
  operator given as sparse rows, such as an e-operator or a Pieri matrix.
  mat_vec is the dense matrix-vector product; production applies operators
  to thin blocks of sparse rows.  sparse_rows turns a dense matrix into
  sparse rows; no command needs that.
- trace_form_gram takes the Gram matrix trace(L_a L_b) of a regular
  representation from its operators through the trace vector;
  quantum.trace_form_rows takes it from a reverse pass over the label plan
  and one thin label recursion and builds no operator, and
  quantum.semisimple_test takes it by definition, one linalg.trace_product
  per pair.  trace_vector_forward takes the trace vector from the images
  L_lam e_c of forward_label_recursion, seeded with the residue-0 piece's
  unit vectors; quantum.trace_row takes it by one reverse pass over the
  plan, and quantum.label_recursion runs the plan on rows s^T L_lam.
  shifted_gram_rows reads the perp verdict's rows t^T E_1 L_a off that run
  seeded with E_1^T t.
- label_degree and label_piece read a label's degree and a residue piece
  off the labels, beta's degree dim Y / 2 among them; production passes
  GradedAlgebra the degrees and reads alg.pieces.
- restrict_to_coords, restrict and charpoly_on_piece restrict a dense
  operator to a piece of basis coordinates or labels and take its
  characteristic polynomial there; quantum.e_power_charpoly builds the
  piece's operator from thin blocks and never forms the whole one.
- charpoly_by_interpolation and charpoly_by_polynomial_bareiss are the two
  division routes to det(xI - a) through linalg._bareiss: integer
  determinants at x = 0..n interpolated in the falling-factorial basis, and
  one elimination over the polynomial ring.  linalg.charpoly is the
  division-free Berkowitz recursion.
- UniPoly, the polynomial type, is defined here and only here: production
  has no polynomial type, returns each polynomial (chi_y, the Poincare
  polynomial, the charpolys) as a tuple of its coefficients, lowest degree
  first, and does no polynomial arithmetic.  unipoly_divmod and
  unipoly_div_exact are polynomial long division; the Poincare oracles and
  the polynomial-ring Bareiss oracle of the charpoly divide with them.
- vertical_strip_additions, quantum_rim_partitions and quantum_pieri are the
  quantum Pieri rule by vertical strips and transposed interlacing;
  quantum.pieri_entries moves particles on the n-cycle.
- sigma_e_polynomial expands sigma_m = h_m in e_1..e_k, and
  evaluate_e_polynomials evaluates such polynomials monomial by monomial,
  sharing prefixes, one sparse_mul at a time and one sparse_combine per
  polynomial; quantum.h_operators runs the h-recursion on seed vectors, and
  seeded with every unit vector its blocks are the transposed operators.
  h_relations_on_every_unit_vector checks the presentation relations so,
  assuming nothing of the E_p; quantum.h_relation_check seeds only the unit
  and the labels outside label_plan, and takes commutativity from the
  constructor.
- matrix_product_e_ops and pair_loop_pairing are the dense routes of the
  section ring: E_p as products of the matrices P_p, C_p and C_1, and
  the pairing over every pair of labels.  Production assembles E_p on sparse
  rows from the Pieri entries and pairs each label with one degree.
- mult_operator combines the label operators into the operator of any
  element; perp_piece_operators reads the perp products off the label
  recursion run on the perp vectors, and builds no label operator.
- PRINTED_H holds the lifts h_6, h_7, h_8 of the presentation relations in
  e_1, e_2, e_3 as printed in the source; sigma_e_polynomial derives them.
- transpose is the conjugate partition, which the oracles' Pieri rules and
  hook lengths read; no production code takes a conjugate.
- to_beta_set, from_beta_set and core_search_unpruned are the beta-set
  bijection and a core search without partitions.core_search's hook-set
  prune, which visits every box complement of at most n - 1 cells and tests
  each i on the beta set rather than reading hits off hook lengths.
  count_small_partitions_table counts the candidates by a table over parts
  and cells in O(k budget^2); partitions._count_small_partitions takes a
  truncated Gaussian binomial in O(k budget).
- hook_lengths lists the hook length of every cell, and snow_by_cells picks
  the snow witnesses from those lists; partitions.snow_witnesses counts the
  hooks of length ell and longer from the beta set, in O(parts log parts).
- euler_sums_by_hooks takes the Borel-Weil-Bott sums of the chi_y genus with
  each Weyl product cell by cell, from the generalized hooks of the whole
  k x (n-k) box and the hook-content formula, k(n-k) factors per twist;
  hodge._euler_sums takes the section's twist sums from the beta set on the
  narrow side, min(k, n-k) table reads and about min(k, n-k)^2 factors per
  twist, and the t = 0 values are the signed partitions.box_counts.
- gram_matrix and cartan_from_gram derive the Cartan matrix from the
  invariant form; rootdata.cartan_matrix reads it off the Dynkin diagram.
- poincare_by_degrees divides the fundamental degrees of G by those of the
  Levi, which levi_degree_multiset finds by classifying Dynkin subdiagrams;
  rootdata.poincare_polynomial takes a product over root heights.
- positive_roots_by_strings walks each root string down and sums each
  pairing afresh, and poincare_by_division takes the height product with
  UniPoly products and one exact division; rootdata carries pairings and
  depths forward and multiplies and divides by each bracket in O(deg).
- euler_number and hodge_number read the Euler number of a BettiProfile and
  one h^{p,q} of a HodgeDiamond; no production code reads either.
- gaussian_binomial, sg_betti, projective_space_profile, poly_from_roots and
  interpolate have no production caller: the t-binomial by the degree route,
  the SG(2, 2n) and P^m Betti profiles, and polynomials from roots and from
  points.

SMALL_TYPES lists the 38 Dynkin types whose 220 G/P_k the root-data tests
cover, and EXCEPTIONAL_SILENT_CASES the five exceptional G/P_k on which the
screen finds nothing.
"""

from __future__ import annotations

import copy
import math
import weakref
from math import prod
from fractions import Fraction
from collections import Counter
from functools import lru_cache
from itertools import combinations

from qhgrass import linalg, quantum
from qhgrass.errors import InternalConsistencyError, InvalidInputError
from qhgrass.linalg import Matrix
from qhgrass.partitions import Box, Partition, box_partitions_of_size, canonical, size
from qhgrass.quantum import (
    GradedAlgebra,
    commuting,
    grassmannian,
    pieri_matrix,
    schubert_basis,
    semisimple_test,
)
from qhgrass.rootdata import (
    _POSITIVE_ROOT_COUNT,
    DynkinType,
    GrassmannianId,
    _edges,
    _root_lengths,
    cartan_matrix,
    dimension,
)
from qhgrass.screen import BettiProfile, profile_of
from qhgrass.section import BETA, SectionRing, _split_pieri, build_ring, radical_and_perp



class UndeterminedProductError(RuntimeError):
    """Raised for products the source material leaves undetermined, such as
    multiplication by beta; production builds no such operator."""


# A1-A11, B2-B9, C2-C9, D4-D9, E6-E8, F4 and G2: 220 G/P_k in all
SMALL_TYPES = tuple(
    DynkinType(family, rank)
    for family, ranks in (
        ("A", range(1, 12)), ("B", range(2, 10)), ("C", range(2, 10)), ("D", range(4, 10)),
        ("E", range(6, 9)), ("F", (4,)), ("G", (2,)),
    )
    for rank in ranks
)

# Exceptional cases where the screen finds nothing: four with unknown
# semisimplicity, plus E8/P4 which is known non-semisimple by other means.
EXCEPTIONAL_SILENT_CASES = (
    ("E", 7, 2),
    ("E", 7, 4),
    ("E", 7, 5),
    ("E", 8, 6),
    ("E", 8, 4),
)

# The explicit lifts of the presentation relations in e_1, e_2, e_3, printed
# in the source for the quantum Lefschetz identities; keys are exponent
# vectors (a_1, a_2, a_3) for e_1^{a_1} e_2^{a_2} e_3^{a_3}.
PRINTED_H = {
    6: {
        (6, 0, 0): 1, (4, 1, 0): -5, (2, 2, 0): 6, (3, 0, 1): 4,
        (0, 3, 0): -1, (1, 1, 1): -6, (0, 0, 2): 1,
    },
    7: {
        (7, 0, 0): 1, (5, 1, 0): -6, (3, 2, 0): 10, (4, 0, 1): 5,
        (1, 3, 0): -4, (2, 1, 1): -12, (0, 2, 1): 3, (1, 0, 2): 3,
    },
    8: {
        (8, 0, 0): 1, (6, 1, 0): -7, (4, 2, 0): 15, (5, 0, 1): 6,
        (2, 3, 0): -10, (3, 1, 1): -20, (0, 4, 0): 1, (1, 2, 1): 12,
        (2, 0, 2): 6, (0, 1, 2): -3,
    },
}


# -- polynomials with exact coefficients ------------------------------------------


class UniPoly:
    """A polynomial in one variable with int or Fraction coefficients, lowest
    degree first: integral Fractions become ints and trailing zeros are
    dropped, so equal polynomials have equal coeffs."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [int(c) if isinstance(c, Fraction) and c.denominator == 1 else c for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @staticmethod
    def one() -> UniPoly:
        return UniPoly([1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial conventionally of degree -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        """True when nonzero, as for ints and Fractions."""
        return bool(self.coeffs)

    def __eq__(self, other):
        return self.coeffs == other.coeffs if isinstance(other, UniPoly) else NotImplemented

    def __add__(self, other: UniPoly) -> UniPoly:
        a, b = sorted((self.coeffs, other.coeffs), key=len, reverse=True)
        return UniPoly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __neg__(self) -> UniPoly:
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: UniPoly) -> UniPoly:
        return self + (-other)

    def __mul__(self, other: UniPoly) -> UniPoly:
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def __call__(self, value):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"


def restrict_to_coords(op: Matrix, cols: list[int]) -> Matrix:
    """Restriction of a dense operator to the span of these basis
    coordinates, which it must preserve: the whole-operator route that
    quantum.e_power_charpoly replaces by thin blocks on the piece."""
    inside = set(cols)
    if any(op[r][c] for c in cols for r in range(len(op)) if r not in inside):
        raise InternalConsistencyError("operator does not preserve the requested piece")
    return [[op[r][c] for c in cols] for r in cols]


def label_degree(alg, lab) -> int:
    """The degree of a basis label, read off the label: |lam| for a
    partition, dim Y / 2 for beta.  Production passes the degrees to
    GradedAlgebra's constructor."""
    return alg.dim_y // 2 if lab == BETA else size(lab)


def label_piece(alg, residue: int = 0) -> tuple:
    """The basis labels whose label_degree is congruent to the residue mod
    r, in basis order; production reads the piece's indices off alg.pieces."""
    return tuple(lab for lab in alg.basis if label_degree(alg, lab) % alg.r == residue)


def restrict(alg, op: Matrix, piece) -> Matrix:
    """Restriction of an operator to the span of the piece's labels."""
    return restrict_to_coords(op, [alg.index[lab] for lab in piece])


def charpoly_on_piece(alg, op: Matrix, piece) -> UniPoly:
    """Exact monic characteristic polynomial of the restriction to a piece,
    by evaluation and interpolation (charpoly_by_interpolation)."""
    return UniPoly(charpoly_by_interpolation(restrict(alg, op, piece)))


def charpoly_by_interpolation(a: Matrix) -> tuple:
    """det(xI - a), lowest degree first, by exact evaluation and
    interpolation: with D the common denominator of a, f(x) = det(xI - D a)
    is taken at x = 0..n by integer Bareiss, its coefficients in the
    falling-factorial basis are c_k = (Delta^k f)(0) / k!, exact quotients,
    and Horner's rule in that basis gives the monomial coefficients b_j.
    det(xI - a) has coefficients b_j / D^(n - j)."""
    n = len(a)
    denom = math.lcm(*(x.denominator for row in a for x in row if type(x) is Fraction))
    scaled = [[int(denom * y) for y in row] for row in a]
    values = [linalg._bareiss([[x * (i == j) - y for j, y in enumerate(row)] for i, row in enumerate(scaled)],
                              linalg._int_div)
              for x in range(n + 1)]
    falling = []
    for k in range(n + 1):
        c, rem = divmod(values[0], math.factorial(k))
        if rem:
            raise InternalConsistencyError("characteristic polynomial values fit no integer polynomial")
        falling.append(c)
        values = [v - u for u, v in zip(values, values[1:])]
    coeffs = [falling[n]]
    for k in range(n - 1, -1, -1):
        # coeffs * (x - k) + c_k, lowest degree first
        coeffs = [falling[k] - k * coeffs[0]] + [u - k * v for u, v in zip(coeffs, coeffs[1:])] + [coeffs[-1]]
    return tuple(linalg.exact_div(b, denom ** (n - j)) for j, b in enumerate(coeffs))


def charpoly_by_polynomial_bareiss(a: Matrix) -> tuple:
    """det(xI - a), lowest degree first, by linalg._bareiss over the
    polynomial ring, with exact polynomial division."""
    m = len(a)
    x_minus_a = [[UniPoly([-a[i][j], int(i == j)]) for j in range(m)] for i in range(m)]
    return linalg._bareiss(x_minus_a, unipoly_div_exact).coeffs if m else (1,)


# -- dense combinations and the regular-representation Gram --------------------


def dense(rows: list[dict], cols: int) -> Matrix:
    """The matrix with these sparse rows and cols columns."""
    out = []
    for row in rows:
        full = [0] * cols
        for j, x in row.items():
            full[j] = x
        out.append(full)
    return out


def dense_square(op: list[dict]) -> Matrix:
    """The square matrix with these sparse rows: row i of e_ops[p] or of a
    Pieri matrix, made dense for the oracles' dense algebra."""
    return dense(op, len(op))


_LABEL_OPS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def label_ops(alg) -> dict:
    """The dense multiplication operator of every partition label of alg
    (quantum.mult_operators), made on the first read and kept while alg
    lives.  The memo is keyed by the algebra object, so a copy of it
    (ring_with_e_ops) gets operators of its own."""
    ops = _LABEL_OPS.get(alg)
    if ops is None:
        ops = _LABEL_OPS[alg] = quantum.mult_operators(alg)
    return ops


def sparse_rows(a: Matrix) -> list[dict]:
    """a's rows as {column: value} over their nonzeros; like the dense
    readers of linalg it refuses sparse rows."""
    linalg._require_dense(a)
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def mat_vec(a: Matrix, v: list) -> list:
    """a v for a dense matrix a and a dense vector v; like the dense readers
    of linalg it refuses sparse rows."""
    linalg._require_dense(a, [v])
    out = [0] * len(a)
    for k, vk in enumerate(v):
        if vk:
            for i in range(len(a)):
                aik = a[i][k]
                if aik:
                    out[i] += aik * vk
    return linalg._integral_entries(out)


def mat_combine(terms, base: Matrix | None = None) -> Matrix:
    """base + sum of c * m over the (c, m) pairs of terms, in one pass.

    All matrices share one shape; base defaults to zero, in which case terms
    must not be empty.  Integral entries of the result are ints.
    """
    terms = list(terms)
    shape = base if base is not None else terms[0][1]
    live = [(c, m) for c, m in terms if c]
    out = []
    for i in range(len(shape)):
        acc = list(base[i]) if base is not None else [0] * len(shape[i])
        for c, m in live:
            acc = [a + c * x if x else a for a, x in zip(acc, m[i])]
        out.append(linalg._integral_entries(acc))
    return out


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
    return mat_combine([(tc, [op[c] for op in ops]) for c, tc in enumerate(t)])


def forward_label_recursion(alg, seed: list[dict]) -> dict:
    """L_lam S for every partition label lam, stored seed-major: row j the
    image L_lam s_j of s_j = seed[j], from the plan's steps
    L_lam s = E_p (L_lam' s) + sum c L_mu s, stepped through E_p's columns
    (alg.columns).  quantum.label_recursion runs the same plan on rows,
    s^T L_lam, against E_p's rows."""
    unit = [{j: 1} for j in range(len(seed))]
    ops = {(): seed}
    for lam, p, lam_prime, corrections in alg.plan:
        terms = [(c, unit, ops[mu]) for mu, c in corrections]
        ops[lam] = linalg.sparse_mul_sum([(1, ops[lam_prime], alg.columns[p])] + terms)
    return ops


def trace_vector_forward(alg) -> list:
    """The trace vector t_c = sum over i of (L_i e_c)_i on the residue-0
    piece, 0 elsewhere, from forward_label_recursion seeded with the
    piece's unit vectors: s rows per label, s the piece's size.  Labels without an
    operator (the section's beta) are left out of the sum, and an integral
    sum of Fractions is an int.  quantum.trace_row takes the whole row sum
    e_i^T L_i in one reverse pass over the plan, one row per label."""
    piece = alg.pieces[0]
    images = forward_label_recursion(alg, [{c: 1} for c in piece])
    t = [0] * len(alg.basis)
    for j, c in enumerate(piece):
        t[c] = linalg._integral(sum(images[lab][j].get(i, 0) for i, lab in enumerate(alg.basis) if lab in images))
    return t


def shifted_gram_rows(alg) -> list[dict]:
    """The rows t^T E_1 L_a of the trace form composed with e_1, in basis
    order, as section.perp_subalgebra_semisimple makes them: the label run
    seeded with E_1^T t, t = quantum.trace_row(alg).  A label with no
    operator (the section's beta) gets an empty row."""
    runs = quantum.label_recursion(alg, linalg.sparse_mul_sum([(1, [quantum.trace_row(alg)], alg.e_ops[1])]))
    return [runs[lab][0] if lab in runs else {} for lab in alg.basis]


# -- exact linear systems -------------------------------------------------------


def rank(a: Matrix) -> int:
    if not a:
        return 0
    return len(linalg.rref(a)[0])


def kernel_basis(a: Matrix) -> list[list]:
    """The reduced echelon kernel basis by two eliminations: rref of a gives
    one vector per free column, and rref of those vectors echelonizes them."""
    if not a:
        return []
    cols = len(a[0])
    pivots, red = linalg.rref(a)
    free = [c for c in range(cols) if c not in pivots]
    vecs = []
    for f in free:
        v = [0] * cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        vecs.append(v)
    if not vecs:
        return []
    _, echelon = linalg.rref(vecs)
    return echelon


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


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(a)
    m = [linalg._integral_entries(list(row)) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            raise InternalConsistencyError("matrix is singular")
        m[c], m[pivot] = m[pivot], m[c]
        linalg._eliminate(m, c, c)
    return [row[n:] for row in m]


class ColumnSpanSolver:
    """Repeated exact coordinate extraction with respect to a fixed independent
    column family: one square subblock is inverted up front and kept as an int
    matrix over one common denominator, so a solve is int products and one
    exact_div per coordinate; every solve is verified on the full columns."""

    def __init__(self, columns: list[list]):
        rows = len(columns[0])
        a = [[columns[j][i] for j in range(len(columns))] for i in range(rows)]
        pivots, _ = linalg.rref([list(r) for r in zip(*a)])  # row-pivot selection via transpose
        if len(pivots) != len(columns):
            raise InternalConsistencyError("columns are not linearly independent")
        self.rows = pivots
        inverse = mat_inverse([[a[r][j] for j in range(len(columns))] for r in pivots])
        self.denominator = math.lcm(*(x.denominator for row in inverse for x in row if type(x) is Fraction))
        self.scaled = [[int(x * self.denominator) for x in row] for row in inverse]
        self.full = a

    def coords(self, target: list) -> list:
        sub = [target[r] for r in self.rows]
        x = [linalg.exact_div(sum(c * t for c, t in zip(row, sub) if c), self.denominator) for row in self.scaled]
        if mat_vec(self.full, x) != list(target):
            raise InternalConsistencyError("vector lies outside the column span")
        return x


# -- beta sets and the unpruned core search --------------------------------------


def transpose(lam: Partition) -> Partition:
    """Conjugate partition (columns become rows)."""
    if not lam:
        return ()
    cols = [0] * lam[0]
    for a in lam:
        for j in range(a):
            cols[j] += 1
    return tuple(cols)


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
    """partitions.core_search's output from the beta-set core test on every
    complement mu of at most n - 1 cells and every i in [max(|mu|, 1), n - 1]:
    lam, with beta set the bitmask A, is an (n-i)-core iff A is closed under
    a -> a - (n-i) on [1, n] (James-Kerber 2.7)."""
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


def count_small_partitions_table(k: int, cols: int, budget: int) -> int:
    """Partitions of at most `budget` cells with at most k parts, each at most
    cols, by adding parts of each size v to a [parts][cells] table."""
    ways = [[1] + [0] * budget] + [[0] * (budget + 1) for _ in range(k)]
    for v in range(1, min(cols, budget) + 1):
        for r in range(1, k + 1):
            for s in range(v, budget + 1):
                ways[r][s] += ways[r - 1][s - v]
    return sum(map(sum, ways))


# -- hooks cell by cell -------------------------------------------------------------


def hook_lengths(lam: Partition) -> dict[tuple[int, int], int]:
    """Hook length of every cell, keyed by 1-indexed (row, col)."""
    lam = canonical(lam)
    tr = transpose(lam)
    return {
        (i, j): lam[i - 1] - j + tr[j - 1] - i + 1
        for i in range(1, len(lam) + 1)
        for j in range(1, lam[i - 1] + 1)
    }


def snow_by_cells(box: Box, p: int, ell: int) -> list[tuple[Partition, int]]:
    """partitions.snow_witnesses from every cell's hook length."""
    return [
        (lam, sum(h > ell for h in hooks))
        for lam in box_partitions_of_size(box.k, box.n, p)
        if ell not in (hooks := hook_lengths(lam).values())
    ]


def euler_sums_by_hooks(k: int, n: int, section: bool) -> tuple[list[int], list[int]]:
    """hodge._euler_sums by the hook-content route: a(p, 0) for p = 0..d and,
    for the section, B(q) for q = 0..d, each Weyl product taken cell by cell
    of the k x (n-k) box, k(n-k) factors per twist."""
    d = k * (n - k)
    box_hooks = prod(r + c + 1 for r in range(k) for c in range(n - k))  # the cross (j - i)
    at_zero = [0] * (d + 1)
    alternating = [0] * (d + 1)
    for p in range(d + 1):
        for lam in box_partitions_of_size(k, n, p):
            rows = lam + (0,) * (k - len(lam))
            cols = transpose(lam)
            cols += (0,) * (n - k - len(cols))
            # the generalized hook h of each cell (r, c) of the box, here counted from 0
            hooks = [rows[r] + cols[c] - r - c - 1 for r in range(k) for c in range(n - k)]
            # block factors over their (j - i): dim S^lam C^k * dim S^lam' C^(n-k), by hook-content
            num = prod((k + c - r) * (n - k - c + r) for r in range(len(lam)) for c in range(lam[r]))
            den = prod(h for h in hooks if h > 0) ** 2 * box_hooks
            singular = set(hooks)
            for j in range(d - p + 1 if section else 1):
                if -j in singular:
                    continue
                value, rem = divmod(num * prod(-j - h for h in hooks), den)
                if rem:
                    raise InternalConsistencyError(f"Weyl dimension of {lam} at t={-j} is fractional")
                if j == 0:
                    at_zero[p] += value
                alternating[p + j] += -value if j % 2 else value
    return at_zero, alternating


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
    return unipoly_div_exact(numerator, denominator)


@lru_cache(maxsize=None)
def positive_roots_by_strings(t: DynkinType) -> tuple[tuple[int, ...], ...]:
    """The positive roots by height, each string depth found by stepping
    down through the roots already found and each pairing summed afresh;
    rootdata.positive_roots carries both forward."""
    n = t.rank
    cartan = cartan_matrix(t)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    found = set(simple)
    layer = list(simple)
    ordered = list(simple)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(n):
                # root string: beta + alpha_i is a root iff p - <beta, alpha_i^v> > 0
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if tuple(down) in found:
                        p += 1
                    else:
                        break
                pairing = sum(beta[j] * cartan[i][j] for j in range(n))
                if p - pairing > 0:
                    up = list(beta)
                    up[i] += 1
                    up = tuple(up)
                    if up not in found:
                        found.add(up)
                        nxt.append(up)
        ordered.extend(sorted(nxt, reverse=True))
        layer = nxt
    if len(ordered) != _POSITIVE_ROOT_COUNT[t.family](t.rank):
        raise InternalConsistencyError(f"{t}: found {len(ordered)} positive roots")
    return tuple(ordered)


def poincare_by_division(g: GrassmannianId) -> UniPoly:
    """prod_{m >= 2} [m]_t^(c_{m-1} - c_m) over the nilradical root heights
    c_h, by UniPoly products and one unipoly_div_exact; rootdata multiplies
    and divides by each bracket in O(deg)."""
    k = g.node - 1
    heights = Counter(sum(beta) for beta in positive_roots_by_strings(g.type) if beta[k] > 0)
    numerator = denominator = UniPoly.one()
    for m in range(2, max(heights) + 2):
        exponent = heights[m - 1] - heights[m]
        bracket = UniPoly([1] * m)
        for _ in range(exponent):
            numerator = numerator * bracket
        for _ in range(-exponent):
            denominator = denominator * bracket
    quotient = unipoly_div_exact(numerator, denominator)
    if quotient.degree != dimension(g) or quotient.coeffs != quotient.coeffs[::-1]:
        raise InternalConsistencyError(f"bad Poincare polynomial for {g}")
    return quotient


def unipoly_divmod(num: UniPoly, den: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient and remainder of polynomial long division; over Z a leading
    coefficient of +-1 keeps every step in the integers."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num.coeffs)
    lead = den.coeffs[-1]
    integral = lead in (1, -1) and all(type(c) is int for c in rem + list(den.coeffs))
    quot = [0] * max(0, len(rem) - len(den.coeffs) + 1)
    for i in range(len(rem) - len(den.coeffs), -1, -1):
        top = rem[i + len(den.coeffs) - 1]
        c = top * lead if integral else Fraction(top) / lead
        if c == 0:
            continue
        quot[i] = c
        for j, b in enumerate(den.coeffs):
            rem[i + j] -= c * b
    return UniPoly(quot), UniPoly(rem)


def unipoly_div_exact(num: UniPoly, den: UniPoly) -> UniPoly:
    """The exact quotient; a nonzero remainder signals an internal inconsistency."""
    q, r = unipoly_divmod(num, den)
    if r:
        raise InternalConsistencyError(f"inexact polynomial division: remainder {r.coeffs}")
    return q


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
    if euler_number(y) != euler_number(x):
        raise InvalidInputError("section profile does not preserve the Euler number")
    return x, y


def euler_number(profile: BettiProfile) -> int:
    """The Euler number of a profile, the sum of its even Betti numbers."""
    return sum(profile.even_betti)


def hodge_number(dia, p: int, q: int) -> int:
    """h^{p,q} of a section's HodgeDiamond: column[p] on the diagonal,
    middle[p] on the middle row p + q = dim, and 0 elsewhere."""
    if p == q:
        return dia.column[p]
    return dia.middle[p] if p + q == dia.dim else 0


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
    out = UniPoly()
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


# -- the quantum Pieri rule by strips and rims, and the relations by monomials ---


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
    """sigma_{1^p} * sigma_lam as {(mu, q power): 1}: mu over the vertical
    strips of p cells, nu over the partitions of |lam| + p - n whose transpose
    interlaces that of lam shifted down by one (only when lam_1 = n - k);
    quantum.pieri_entries moves particles on the n-cycle instead."""
    if not 1 <= p <= box.k:
        raise InvalidInputError(f"Pieri index p={p} outside [1, {box.k}]")
    lam = box.require(lam)
    terms = {(mu, 0): 1 for mu in vertical_strip_additions(lam, p, box)}
    terms.update({(nu, 1): 1 for nu in quantum_rim_partitions(lam, p, box)})
    return terms


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


def h_relations_on_every_unit_vector(columns: dict[int, list[dict]], n: int, target: list[dict]) -> bool:
    """h_{n-k+1} = ... = h_{n-1} = 0 and h_n = (-1)^(k+1) T as operator
    identities, with no seed argument: quantum.h_operators seeded with every
    unit vector, whose blocks are the transposed H_m, against the rows of
    T^T (target).  columns[p] holds the rows of E_p^T.  It assumes nothing
    of the E_p, not even that they commute."""
    identity = [{i: 1} for i in range(len(target))]
    *vanishing, top = quantum.h_operators(columns, n, identity)
    return not any(map(any, vanishing)) and top == [{j: (-1) ** (len(columns) + 1) * x for j, x in row.items()}
                                                     for row in target]


def sparse_mul(a: list[dict], b: list[dict]) -> list[dict]:
    """a @ b on sparse rows, one product at a time."""
    return linalg.sparse_mul_sum([(1, a, b)])


def commuting_in_fractions(ops: list[list[dict]]) -> bool:
    """Whether every two operators, given as sparse rows, commute: ab - ba
    has no nonzero entry, with the entries as they are."""
    return not any(
        any(linalg.sparse_mul_sum([(1, a, b), (-1, b, a)])) for i, a in enumerate(ops) for b in ops[i + 1 :]
    )


def sparse_combine(terms, base: list[dict]) -> list[dict]:
    """base + sum of c * m over the (c, m) pairs of terms, on sparse rows."""
    live = [(c, m) for c, m in terms if c]
    out = []
    for i, row in enumerate(base):
        acc = dict(row)
        for c, m in live:
            for j, x in m[i].items():
                acc[j] = acc[j] + c * x if j in acc else c * x
        out.append(linalg._integral_row(acc))
    return out


def evaluate_e_polynomials(polys, generators: dict[int, list[dict]]) -> list[Matrix]:
    """Evaluate polynomials in e_1..e_k on commuting operators given as sparse
    rows, generators[p] standing for e_p, in the format of e_ops.  A monomial
    e_1^a_1 ... e_k^a_k is read as a word and built from its longest prefix
    already built, by any of the polynomials, so monomials that share a
    prefix share its products, each one sparse_mul on sparse rows; only the
    evaluated polynomials are made dense."""
    dim = len(generators[1])
    unit = [{i: 1} for i in range(dim)]
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
                        built[key] = generators[p] if term is None else sparse_mul(generators[p], term)
                    term = built[key]
            terms.append((coeff, unit if term is None else term))
        out.append(dense(sparse_combine(terms, [{} for _ in range(dim)]), dim))
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


def vector(alg, x: ClassVector, q: int = 1) -> list:
    """Basis coordinates of a class at q = 1 (or at q = 0, its q-free terms)."""
    coords = [0] * len(alg.basis)
    for (lab, qp), coeff in x.terms.items():
        coords[alg.index[lab]] += coeff * q**qp
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


def symbolic_e_ops(alg, q: int = 1) -> dict[int, Matrix]:
    """The e-operators with column j the symbolic image of basis[j] at q."""
    return {
        p: [list(col) for col in zip(*(vector(alg, pieri_on_label(alg, p, lab), q) for lab in alg.basis))]
        for p in range(1, alg.k + 1)
    }


def symbolic_label_ops(alg, q: int = 1) -> dict:
    """mult_operators' first-column recursion L_lam = E_p L_lam' - sum c q^d L_mu,
    with E_p from symbolic_e_ops and each image from pieri_on_label, at q."""
    dim = len(alg.basis)
    e_ops = symbolic_e_ops(alg, q)
    ops = {(): linalg.identity(dim)}
    partitions = [lab for lab in alg.basis if isinstance(lab, tuple) and lab]
    for lam in sorted(partitions, key=lambda lab: (size(lab), lab)):
        p, lam_prime = len(lam), canonical(tuple(a - 1 for a in lam))
        image = dict(pieri_on_label(alg, p, lam_prime).terms)
        if image.pop((lam, 0), 0) != 1:
            raise InternalConsistencyError(f"e_{p} * s{lam_prime} does not determine s{lam}")
        corrections = [(-coeff * q**d, ops[mu]) for (mu, d), coeff in image.items()]
        ops[lam] = mat_combine(corrections, linalg.mat_mul(e_ops[p], ops[lam_prime]))
    return ops


# -- the dense routes of the section ring -----------------------------------------


def cup_matrix(box: Box, p: int) -> Matrix:
    """The classical cup product C_p by sigma_{1^p} over the Schubert basis:
    the q-free terms of quantum_pieri, column by column."""
    basis = schubert_basis(box)
    index = {lam: i for i, lam in enumerate(basis)}
    mat = linalg.zeros(len(basis), len(basis))
    for col, lam in enumerate(basis):
        for (mu, d), c in quantum_pieri(p, lam, box).items():
            if not d:
                mat[index[mu]][col] = c
    return mat


def classical_grassmannian(box: Box) -> GradedAlgebra:
    """H*(Gr(k, n)), QH at q = 0: Gr(k, n)'s basis with the cup products C_p
    as e-operators."""
    alg = grassmannian(box)
    e_ops = {p: sparse_rows(cup_matrix(box, p)) for p in range(1, box.k + 1)}
    return GradedAlgebra(box, alg.basis, alg.degrees, alg.r, e_ops)


def classical_section_e_ops(ring: SectionRing) -> dict[int, list[dict]]:
    """R C_p J, the section Pieri rule at q = 0: the ring's own assembly of
    E_p = R (C_p + (P_p - C_p) C_1) J, given _split_pieri's q-free half C_p
    and no q half."""
    dim = len(schubert_basis(ring.box))
    halves = {p: (_split_pieri(ring.box, p)[0], [{} for _ in range(dim)]) for p in range(1, ring.k + 1)}
    return ring._e_operators(ring.index, halves)


def ring_with_e_ops(ring: SectionRing, e_ops: dict[int, list[dict]]) -> SectionRing:
    """A copy of the section ring with these e-operators, through
    GradedAlgebra's constructor, whose certificates then read the ring's own
    degrees, beta's among them.  The copy is a new algebra: its E_p^T are
    made afresh, and neither the plan nor label_ops carries over."""
    alg = copy.copy(ring)
    vars(alg).pop("plan", None)
    GradedAlgebra.__init__(alg, ring.box, ring.basis, ring.degrees, ring.r, e_ops)
    return alg


def classical_section_ring(ring: SectionRing) -> SectionRing:
    """The section ring at q = 0: its basis and pairing with R C_p J as
    e-operators."""
    return ring_with_e_ops(ring, classical_section_e_ops(ring))


def matrix_product_e_ops(ring: SectionRing, q: int = 1) -> dict[int, Matrix]:
    """E_p = R (C_p + (P_p - C_p) C_1) J as dense matrix products, with P_p the
    Pieri matrix at q = 1 (or C_p, at q = 0) and C_p from cup_matrix;
    production assembles the same identity on sparse rows from the Pieri
    entries."""
    ambient, at, basis = schubert_basis(ring.box), ring._ambient_index, ring.basis
    cup1 = cup_matrix(ring.box, 1)
    reduction = linalg.zeros(len(basis), len(ambient))
    for col, lam in enumerate(ambient):
        if lam in ring.index:
            reduction[ring.index[lam]][col] = 1
        for lab, c in ring.relations.get(lam, {}).items():
            reduction[ring.index[lab]][col] = c
    inclusion = linalg.zeros(len(ambient), len(basis))
    for j, lab in enumerate(basis):
        if lab != BETA:
            inclusion[at[lab]][j] = 1
    e_ops = {}
    for p in range(1, ring.k + 1):
        classical = cup_matrix(ring.box, p)
        full = dense_square(pieri_matrix(ring.box, p)) if q else classical
        correction = mat_combine([(1, full), (-1, classical)])
        raw = mat_combine([(1, linalg.mat_mul(correction, cup1))], classical)
        e_ops[p] = linalg.mat_mul(reduction, linalg.mat_mul(raw, inclusion))
    return e_ops


def pair_loop_pairing(ring: SectionRing) -> Matrix:
    """The section pairing over every pair of basis labels, with size and
    box.dual taken per pair; production pairs each label with one degree."""
    cup1, at = cup_matrix(ring.box, 1), ring._ambient_index
    mat = linalg.zeros(len(ring.basis), len(ring.basis))
    for i, a in enumerate(ring.basis):
        for j, b in enumerate(ring.basis):
            if a == BETA or b == BETA:
                mat[i][j] = 1 if (a == BETA and b == BETA) else 0
            elif size(a) + size(b) == ring.dim_y:
                mat[i][j] = cup1[at[ring.box.dual(b)]][at[a]]
    return mat


def mult_operator(alg, coords) -> Matrix:
    """Multiplication operator of the element with these basis coordinates,
    combined from the label operators; perp_piece_operators reads the perp
    products off the label recursion run on the perp vectors instead."""
    ops, terms = label_ops(alg), []
    for coeff, lab in zip(coords, alg.basis):
        if not coeff:
            continue
        if lab not in ops:
            raise UndeterminedProductError(f"multiplication by {lab} is undetermined by the source")
        terms.append((coeff, ops[lab]))
    return mat_combine(terms, linalg.zeros(len(alg.basis), len(alg.basis)))


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


def ambient_pairing(box: Box) -> Matrix:
    """The Poincare pairing of Gr(k, n) on the Schubert basis,
    <s_lam, s_mu> = [mu = dual(lam)]; production builds none."""
    basis = schubert_basis(box)
    index = {lam: i for i, lam in enumerate(basis)}
    pairing = linalg.zeros(len(basis), len(basis))
    for i, lam in enumerate(basis):
        pairing[i][index[box.dual(lam)]] = 1
    return pairing


def radical(box: Box) -> tuple[list[dict], list[list]]:
    """radical_by_power for QH(Gr(k, n)), with its pairing ambient_pairing."""
    return radical_by_power(grassmannian(box), ambient_pairing(box))


def radical_by_power(alg, pairing: Matrix) -> tuple[list[dict], list[list]]:
    """Kernel of the N-th power of multiplication by e_1 (N the dimension),
    as the sparse rows of its reduced echelon basis, plus its perp space for
    the pairing (perp_space); section.radical_and_perp takes ker e_1,
    certified by the pairing."""
    rad = sparse_rows(linalg.kernel_basis(linalg.mat_pow(dense_square(alg.e_ops[1]), len(alg.basis))))
    return rad, perp_space(alg, rad, pairing)


def perp_space(alg, rad: list[dict], pairing: Matrix) -> list[list]:
    """The orthogonal complement P of the radical inside the residue-0 piece
    of alg, for the pairing (a section ring's own, or ambient_pairing):
    the reduced echelon kernel basis of the pairing constraints (or the
    identity when the radical is empty), written in the piece's labels,
    which are in basis order, so perp_piece_operators can read coordinates
    off its pivots."""
    idx, piece = alg.index, label_piece(alg)
    constraints = []
    for u in dense(rad, len(alg.basis)):
        pu = mat_vec(pairing, u)
        constraints.append([pu[idx[lam]] for lam in piece])
    if constraints:
        perp_coords = linalg.kernel_basis(constraints)
    else:
        perp_coords = linalg.identity(len(piece))
    perp = []
    for coords in perp_coords:
        v = [0] * len(alg.basis)
        for c, lam in zip(coords, piece):
            v[idx[lam]] = c
        perp.append(v)
    return perp


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
                if lab == BETA or qp == 0 or size(lab) >= m:
                    raise InternalConsistencyError(f"lift of {lam} has unexpected term {lab} q^{qp}")
            for (lab, qp), coeff in rest.terms.items():
                for expo, c in lifts[lab].items():
                    poly[expo] = poly.get(expo, 0) - coeff * c
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
    e_ops = {p: dense_square(op) for p, op in ring.e_ops.items()}

    def power(p, count):
        if count == 0:
            return linalg.identity(dim)
        if (p, count) not in powers:
            powers[(p, count)] = linalg.mat_mul(e_ops[p], power(p, count - 1))
        return powers[(p, count)]

    for expo, coeff in poly.items():
        term = power(1, expo[0])
        for p in range(2, ring.k + 1):
            if expo[p - 1]:
                term = linalg.mat_mul(term, power(p, expo[p - 1]))
        terms.append((coeff, term))
    return mat_combine(terms, linalg.zeros(dim, dim))


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
    piece_x = label_piece(grassmannian(box))
    dim0 = len(piece_x)
    e1x, e2x = dense_square(pieri_matrix(box, 1)), dense_square(pieri_matrix(box, 2))
    e1y, e2y = dense_square(ring.e_ops[1]), dense_square(ring.e_ops[2])
    if n == 7:
        gen_x = linalg.mat_pow(e1x, n)
        gen_y = linalg.mat_pow(e1y, n - 1)
    else:
        gen_x = linalg.mat_mul(linalg.mat_pow(e1x, n - 2), e2x)
        gen_y = linalg.mat_mul(linalg.mat_pow(e1y, n - 3), e2y)

    # ambient side: powers of the generator applied to the unit
    idx_x = {lam: i for i, lam in enumerate(basis_x)}
    unit_x = [0] * len(basis_x)
    unit_x[idx_x[()]] = 1
    powers_x = [unit_x]
    for _ in range(dim0 - 1):
        powers_x.append(mat_vec(gen_x, powers_x[-1]))
    coords_x = [[v[idx_x[lam]] for lam in piece_x] for v in powers_x]
    if rank(coords_x) != dim0:
        return False
    cols_x = [idx_x[lam] for lam in piece_x]
    char_x = linalg.charpoly([[gen_x[r][c] for c in cols_x] for r in cols_x])

    # section side: powers of the generator, projected away from the radical
    rad = radical_and_perp(ring)
    perp = perp_space(ring, rad, dense_square(ring.pairing))
    project = _perp_projector(ring, rad)
    unit_y = vector(ring, ClassVector.unit(ring.box))
    powers_y = [unit_y]
    for _ in range(dim0 - 1):
        powers_y.append(mat_vec(gen_y, powers_y[-1]))
    perp_powers = [project(v) for v in powers_y]
    if rank(perp_powers) != dim0:
        return False
    # matrix of the generator on the perp space, then compare spectra
    solver = ColumnSpanSolver(perp)
    coords = [solver.coords(project(mat_vec(gen_y, v))) for v in perp]
    char_y = linalg.charpoly([list(col) for col in zip(*coords)])
    if char_x != char_y:
        return False
    # identical linear expansions of sigma_1^{r_X} and ((j sigma_1)^{r_Y})_perp
    # in the two power bases
    target_x = mat_vec(linalg.mat_pow(e1x, n), unit_x)
    expansion_x = solve([list(col) for col in zip(*powers_x)], target_x)
    target_y = project(mat_vec(linalg.mat_pow(e1y, n - 1), unit_y))
    expansion_y = solve([list(col) for col in zip(*perp_powers)], target_y)
    return expansion_x == expansion_y


def perp_piece_operators(ring: SectionRing, perp: list[list]) -> tuple[list, Matrix]:
    """Multiplication by each perp vector v_j, and e_1^r, as matrices on the
    perp space P in the basis perp (p x p each, p = len(perp)).

    No label operator is built.  The label recursion seeded with v_1..v_p
    (forward_label_recursion) gives, seed-major, the rows L_lab v_j for every
    label, and v_i * v_j = sum over lab of v_i[lab] L_lab v_j; perp vectors
    have no beta coordinate.

    The coordinates of an image are read, not solved for.  perp_space gives
    P a reduced echelon basis: each v_i has a leading 1 at its pivot, where
    every other v_j is 0, so an image w in P has its entries at the pivots
    as coordinates.  Every reading is checked by rebuilding w from them:
    v_i * v_j lies in P, so P is closed under multiplication, and e_1^r v_j
    lies in P, so e_1^r maps P into P.
    """
    pivots = [next(i for i, c in enumerate(v) if c) for v in perp]
    columns = [list(row) for row in zip(*perp)]

    def on_piece(images: list[list]) -> Matrix:
        coords = []
        for w in images:
            x = [w[i] for i in pivots]
            if mat_vec(columns, x) != w:
                raise InternalConsistencyError("vector lies outside the column span")
            coords.append(x)
        return [list(row) for row in zip(*coords)]

    on_perp = forward_label_recursion(ring, sparse_rows(perp))
    unit = [{j: 1} for j in range(len(perp))]
    generators = []
    for v in perp:
        products = linalg.sparse_mul_sum([(c, unit, on_perp[lab]) for lab, c in zip(ring.basis, v) if c])
        generators.append(on_piece(dense(products, len(ring.basis))))
    shifted, e1 = perp, dense_square(ring.e_ops[1])
    for _ in range(ring.r):
        shifted = [mat_vec(e1, u) for u in shifted]
    return generators, on_piece(shifted)


def perp_route_semisimple(k: int, n: int) -> tuple[bool, int, int]:
    """The trace form of the subalgebra S = sum over i < r of e_1^i P
    generated by e_1 and the perp space P, decided on P; section's
    perp_subalgebra_semisimple decides S as A / ker e_1 from the shifted Gram
    matrix instead.

    e_1 commutes with every multiplication operator and e_1^r maps P into P,
    so multiplication by an element of P has r times its trace on P as its
    trace on S, and multiplication by an element of e_1^m P has trace 0 on S
    when r does not divide m.  The Gram matrix of S is then
    block-antidiagonal by residue, and

        det G_S = (-1)^(p floor((r-1)/2)) r^(rp) det(G_P)^r det(M_z)^(r-1),

    with p = |P|, G_P the trace-form Gram matrix of P (quantum.semisimple_test
    on the p x p generators) and M_z the matrix of e_1^r on P.  So S is
    semisimple exactly when both determinants are nonzero; then e_1^i is
    injective on P for every i and the r pieces e_1^i P lie in distinct
    residues, so S has dimension r p.  Commutativity is asserted on the
    generators and e_1^r.  Returns the verdict, r p and the radical's
    dimension.
    """
    ring = build_ring(k, n)
    rad = radical_and_perp(ring)
    generators, shift = perp_piece_operators(ring, perp_space(ring, rad, dense_square(ring.pairing)))
    if not commuting([sparse_rows(op) for op in generators + [shift]]):
        raise InternalConsistencyError("the perp subalgebra's generators do not commute")
    ok = semisimple_test(generators) and linalg.det_bareiss(shift) != 0
    return ok, ring.r * len(generators), len(rad)


def perp_subalgebra_basis(ring: SectionRing, perp: list[list]) -> list[list]:
    """Basis e_1^i * v over 0 <= i < r_Y and v in the perp space."""
    vectors, e1 = [], dense_square(ring.e_ops[1])
    current = [list(v) for v in perp]
    for _ in range(ring.r):
        vectors.extend([list(v) for v in current])
        current = [mat_vec(e1, v) for v in current]
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
    solver = ColumnSpanSolver(w)

    def restrict(full: Matrix) -> Matrix:
        cols = [solver.coords(mat_vec(full, wv)) for wv in w]
        return [list(row) for row in zip(*cols)]

    r_e1 = restrict(dense_square(ring.e_ops[1]))
    r_gen = [restrict(mult_operator(ring, list(v))) for v in perp]
    ops = []
    power = linalg.identity(sub_dim)
    for _ in range(ring.r):
        ops.extend(linalg.mat_mul(power, g) for g in r_gen)
        power = linalg.mat_mul(r_e1, power)
    return ops, [r_e1] + r_gen


def _perp_projector(ring: SectionRing, rad: list[dict]):
    """Projection onto the pairing-orthogonal complement of the radical."""
    if not rad:
        return lambda v: list(v)
    rad = dense(rad, len(ring.basis))
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
    return sum(a * b for a, b in zip(u, mat_vec(dense_square(ring.pairing), v)))


def betti_numbers(ring) -> tuple[int, ...]:
    """Even Betti numbers of Y read off the graded ring dimensions."""
    out = []
    for m in range(ring.dim_y + 1):
        b = len(ring.degree_basis[m])
        if ring.prim_dim and m == ring.dim_y // 2:
            b += ring.prim_dim
        out.append(b)
    return tuple(out)
