"""Quantum cohomology of Gr(k, n) and of its sections as one graded algebra.

For q != 0 the small quantum ring is isomorphic to the one at q = 1: with
t^r = q (r = deg q, over a field holding t), sigma_lam -> t^|lam| sigma_lam
carries one to the other.  So no verdict, charpoly or presentation check
depends on q, and every matrix here is taken at q = 1.

GradedAlgebra is a graded algebra with exact rational coefficients, generated
by e_1..e_k, the classes sigma_{1^p} (Chern classes of the dual tautological
subbundle).  It holds the grading as data: the basis labels, the degree of
each, the degree r of q and the residue pieces, pieces[rho] the ascending
basis indices of degree rho mod r (residue_pieces, the one place a piece is
read off the degrees).  It holds the e-operators as sparse rows (row i of
e_ops[p], as of each Pieri matrix, is {column j: value} over its nonzeros)
and their transposes (columns[p], the rows of E_p^T), and, when first read,
the label plan; it holds no label operator.  Its constructors are
grassmannian(box) for Gr(k, n) and section.build_ring for a smooth
hyperplane section of Gr(3, n), which alone carries a Poincare pairing.
Both take the characteristic polynomial of a power of e_1 on the
residue-0 piece from e_power_charpoly, which reads only the e-operators and
the piece's coordinates.

The Pieri matrices P_p = pieri_matrix(box, p) are the one source of Pieri
images for both.  Column lam of P_p is the quantum Pieri rule in Postnikov's
cyclic form (Affine approach to quantum Schubert calculus, Duke Math. J.
2005): row j of lam is a particle at lam_j + k - j on the n-cycle,
sigma_{1^p} moves p particles one step clockwise, each onto a spot that no
staying particle holds, and a particle that passes n - 1 -> 0 carries q.
Every coefficient is 1 and at most one particle passes, so P_p is 0/1.
pieri_entries reads the entries (row, col, q power) off one sweep of particle
moves per (box, p) and caches them; the particle masks and their index are
made once per box (_particles) for every p.  section._split_pieri, which
splits the entries into the classical part C_p and the q part for the
section ring, is the one reader of the q power.  The tests compare the
entries with the vertical-strip and rim rule on every box with n <= 12.

GradedAlgebra's constructor asserts that e_1..e_k commute (commuting, on
integral multiples D_p E_p, since D_a D_b (ab - ba) = 0 exactly when
ab = ba) and that E_p raises degree by p mod r (require_graded), the one place
each is checked.  One triangular Pieri recursion (label_recursion),
L_lam = E_p L_lam' - sum c L_mu, runs on a seed block S, stored seed-major:
for each label, one sparse row per seed vector s_j, the row s_j^T L_lam, so
a step costs s rows and not d.  Its order, images and checks are the
algebra's plan (label_plan), made when first read, kept on the algebra and
shared by every run on it.  It relies on that assertion and reads each image
off a column of an e-operator, so no Littlewood-Richardson rule is needed;
the Giambelli route lives with the tests as an independent check, so the
quantum Giambelli property is a checked invariant rather than an input.

The ambient verdict (qh_semisimple) is the trace-form criterion: QH is
semisimple iff det trace(L_a L_b) != 0.  With phi(x) = trace(L_x), the
pairing with Abrams' quantum Euler class, trace(L_a L_b) = phi(a b), so the
Gram matrix follows from one trace vector t and one thin run
(trace_form_rows).  t^T is the row sum of e_i^T L_i over the labels i,
which one reverse pass over the plan gives, one row per label (trace_row).
t vanishes off the residue-0 piece, since L_c shifts the degree by |c| mod
r (the constructor checks E_p on its nonzeros); a nonzero there raises.
Gram row a is t^T L_a: the label run seeded with t, kept as a sparse
row.  phi(a b) vanishes unless deg a + deg b = 0 mod r, so the Gram matrix
is zero outside the blocks of residue rho against -rho, and
trace_form_nonsingular decides det != 0 block by block
(linalg.block_nonsingular), raising on a nonzero outside them and taking
one determinant for each pair of mirrored blocks of the symmetric form; no
verdict makes a d x d matrix.  qh_semisimple returns
screen.Verdict(ok, "trace-form", None).  No command builds a label
operator: semisimple_test (the Gram matrix by its definition) and
mult_operators (the run seeded with the identity, made dense) are kept for
the tests and the benchmark's spans.

The presentation relations h_{n-k+1} = ... = h_{n-1} = 0 and
h_n = (-1)^(k+1) T, with T = q for Gr(k, n) and q e_1 for a section (the
quantum Lefschetz presentation), are checked by one function on the ring,
h_relation_check(alg, target): presentation_check(box) runs it on
grassmannian(box) with T = I and section.lefschetz_relation_check(ring) on
the section ring with T = E_1.  It runs the h-recursion H_0 = I,
H_m = sum over i <= min(m, k) of (-1)^(i+1) E_i H_(m-i) (h_operators) on a
few seed vectors, stored seed-major as label_recursion stores its blocks and
keeping only the last k; the tests compare it with sigma_m expanded in
e_1..e_k and evaluated monomial by monomial.  The seeds are the unit and
every basis label that label_plan does not build (beta on the (3, 8)
section), and they prove the identities on the whole ring.  The constructor
asserted that E_1..E_k commute, and label_plan certifies that every
partition label b is f_b(E) 1 for a polynomial f_b, raising where a Pieri
image does not determine b.  T commutes with every E_p, so
H_m b - T b = f_b(E) (H_m 1 - T 1): the identities on the unit give them on
b.  A label outside the plan is not reached from the unit and is seeded
itself.  Pieri matrices that do not commute are therefore refused by the
constructor (exit 1), not reported as a relation that fails.  Both
recursions and the commutativity check read the e-operators as sparse rows,
one fused linalg.sparse_mul_sum a step, and so do e_power_charpoly's thin
blocks: no whole E_p is made dense.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations

from . import linalg
from .errors import InternalConsistencyError, InvalidInputError
from .linalg import Matrix
from .partitions import Box, Partition, box_partitions_of_size, size
from .screen import Verdict


@lru_cache(maxsize=None)
def schubert_basis(box: Box) -> tuple[Partition, ...]:
    """Schubert basis ordered by degree, lexicographically decreasing within."""
    return tuple(lam for m in range(box.k * box.cols + 1) for lam in box_partitions_of_size(box.k, box.n, m))


@lru_cache(maxsize=None)
def _particles(box: Box) -> tuple[list[int], dict[int, int], list[list[int]]]:
    """The particle mask of each Schubert class, the index of each mask and
    each mask's particles as single bits, once per box for every p: row j
    of lam (1-indexed) is bit lam_j + k - j of an n-bit mask."""
    k = box.k
    masks = [
        sum(1 << (a + k - j) for j, a in enumerate(lam + (0,) * (k - len(lam)), 1)) for lam in schubert_basis(box)
    ]
    bits = [[1 << x for x in range(box.n) if mask >> x & 1] for mask in masks]
    return masks, {mask: i for i, mask in enumerate(masks)}, bits


@lru_cache(maxsize=None)
def pieri_entries(box: Box, p: int) -> tuple[tuple[int, int, int], ...]:
    """The nonzero entries (row, col, q power) of sigma_{1^p} * (-) over the
    Schubert basis, by particle moves; every coefficient is 1.

    Row j of lam (1-indexed) is a particle at lam_j + k - j on the n-cycle,
    here a bit of an n-bit mask (_particles).  e_p moves p particles one
    step clockwise, each onto a spot that no staying particle holds, and a
    particle that passes n - 1 -> 0 carries q (Postnikov, Affine approach to
    quantum Schubert calculus, Duke Math. J. 2005).
    """
    if not 1 <= p <= box.k:
        raise InvalidInputError(f"Pieri index p={p} outside [1, {box.k}]")
    n = box.n
    masks, index, bits = _particles(box)
    entries = []
    for col, (occupied, particles) in enumerate(zip(masks, bits)):
        for moved in combinations(particles, p):
            m = sum(moved)
            landed, stay = (m << 1 | m >> (n - 1)) & ~(1 << n), occupied ^ m
            if not landed & stay:
                entries.append((index[stay | landed], col, m >> (n - 1)))
    return tuple(entries)


def pieri_matrix(box: Box, p: int) -> list[dict]:
    """sigma_{1^p} * (-) over the Schubert basis at q = 1, new on every call,
    as e_ops[p] holds it: row i is {col: 1} over pieri_entries' row i."""
    rows = [{} for _ in schubert_basis(box)]
    for row, col, _ in pieri_entries(box, p):
        rows[row][col] = 1
    return rows


def residue_pieces(degrees, r: int) -> tuple[tuple[int, ...], ...]:
    """The basis indices of each residue rho mod r, in ascending order:
    pieces[rho] for rho = 0..r-1, from the degree of each basis element."""
    pieces: list[list[int]] = [[] for _ in range(r)]
    for i, degree in enumerate(degrees):
        pieces[degree % r].append(i)
    return tuple(map(tuple, pieces))


class GradedAlgebra:
    """A graded algebra generated by e_1..e_k, at q = 1.

    A constructor supplies the basis, the degree of each basis element, the
    degree r of q and the e-operators; row i of e_ops[p] is {j: value} over
    its nonzeros.  The algebra holds its residue pieces (pieces[rho], the
    basis indices of degree rho mod r) and the rows of each E_p^T
    (columns[p]).  The constructor asserts, once, that the e-operators
    commute and are graded; plan (label_plan) is made when first read.
    grassmannian builds Gr(k, n); section.SectionRing builds a section.
    """

    def __init__(self, box: Box, basis, degrees, r: int, e_ops: dict[int, list[dict]]):
        self.box, self.k, self.basis, self.degrees, self.r = box, box.k, tuple(basis), tuple(degrees), r
        self.index = {lab: i for i, lab in enumerate(self.basis)}
        self.pieces = residue_pieces(self.degrees, r)
        if not commuting(list(e_ops.values())):
            raise InternalConsistencyError("inconsistent Pieri images: e_1..e_k do not commute")
        self.e_ops = e_ops
        require_graded(self)
        self.columns = {p: _transpose(op) for p, op in e_ops.items()}

    @cached_property
    def plan(self) -> tuple:
        """The steps of label_recursion (label_plan)."""
        return label_plan(self)


def _piece_block(e_ops: dict[int, list[dict]], cols: list[int], steps: list[int]) -> Matrix:
    """The product of E_p over p in steps, in that order, on the span of the
    coordinates cols, as an s x s matrix, from a thin block: row j is the
    unit row of cols[j] stepped through the rows of E_p (e_ops[p]), so it is
    row cols[j] of the product.  A product of degree 0 mod r keeps each
    residue piece and its complement, and the CLI refuses a misaligned power
    before any operator is built, so a row with a nonzero off the piece is a
    fault of the program, not of its input."""
    block = [{c: 1} for c in cols]
    for p in steps:
        block = linalg.sparse_mul_sum([(1, block, e_ops[p])])
    inside = set(cols)
    if any(j not in inside for row in block for j in row):
        raise InternalConsistencyError("operator does not preserve the requested piece")
    return [[row.get(j, 0) for j in cols] for row in block]


def e_power_charpoly(e_ops: dict[int, list[dict]], cols: list[int], r: int, power: int, with_e2=False) -> tuple:
    """Characteristic polynomial of e_1^power (optionally * e_2) on the span
    of the basis coordinates cols, r the degree of q.  It reads only the rows
    of e_ops[1] (and e_ops[2]), so a caller holding just those needs no
    whole algebra.  With power = m r + lead the operator is B^m C, B = E_1^r
    and C = E_1^lead (* E_2); each preserves the piece, so on it the
    operator is the s x s product of their thin blocks (_piece_block),
    s = len(cols)."""
    m, lead = divmod(power, r)
    op = _piece_block(e_ops, cols, [1] * lead + [2] * with_e2)
    if m:
        op = linalg.mat_mul(linalg.mat_pow(_piece_block(e_ops, cols, [1] * r), m), op)
    return linalg.charpoly(op)


@lru_cache(maxsize=None)
def grassmannian(box: Box) -> GradedAlgebra:
    """QH(Gr(k, n)): the Schubert basis, q of degree n and the Pieri matrices."""
    basis = schubert_basis(box)
    e_ops = {p: pieri_matrix(box, p) for p in range(1, box.k + 1)}
    return GradedAlgebra(box, basis, map(size, basis), box.n, e_ops)


def _transpose(op: list[dict]) -> list[dict]:
    """The transpose of a square operator given as sparse rows: row j is
    column j of op, as {row i: value}."""
    columns = [{} for _ in op]
    for i, row in enumerate(op):
        for j, x in row.items():
            columns[j][i] = x
    return columns


def require_graded(alg: GradedAlgebra) -> None:
    """Raise unless each nonzero j of row i of e_ops[p] has deg i = deg j + p
    mod r, in O(nnz); GradedAlgebra's constructor checks it once."""
    degree = [d % alg.r for d in alg.degrees]
    for p, op in alg.e_ops.items():
        if any((degree[i] - degree[j] - p) % alg.r for i, row in enumerate(op) for j in row):
            raise InternalConsistencyError(
                f"inconsistent Pieri images: e_{p} does not raise degree by {p} mod {alg.r}"
            )


def label_plan(alg: GradedAlgebra) -> tuple:
    """The steps of label_recursion, alg.plan: for each partition label lam
    in (degree, lex) order, (lam, p, lam', corrections), with
    e_p * lam' = lam - sum over (mu, c) in corrections of c mu at q = 1,
    read off column lam' of E_p = e_ops[p] (alg.columns).  Raises unless lam
    has coefficient 1 there and lam' and every mu come before lam."""
    columns = alg.columns
    built, steps = {()}, []
    partitions = [lab for lab in alg.basis if isinstance(lab, tuple) and lab]
    for lam in sorted(partitions, key=lambda lab: (size(lab), lab)):
        p, lam_prime = len(lam), tuple(a - 1 for a in lam if a > 1)
        col = alg.index.get(lam_prime)
        image = {alg.basis[i]: x for i, x in columns[p][col].items()} if col is not None else {}
        if image.pop(lam, 0) != 1 or lam_prime not in built or any(mu not in built for mu in image):
            raise InternalConsistencyError(
                f"inconsistent Pieri images: e_{p} * s{lam_prime} does not determine s{lam}"
            )
        steps.append((lam, p, lam_prime, tuple((mu, -coeff) for mu, coeff in image.items())))
        built.add(lam)
    return tuple(steps)


def label_recursion(alg: GradedAlgebra, seed: list[dict]) -> dict:
    """S^T L_lam for every partition label lam, stored seed-major: a block
    of sparse rows, row j the row s_j^T L_lam of seed vector s_j = seed[j].

    Removing the first column of lam (p = len(lam) cells) leaves lam', and
    e_p * lam' = lam + sum c q^d mu, where every other mu of the same degree
    is lexicographically smaller and every q term has lower degree.  That
    image, at q = 1, is column lam' of E_p = e_ops[p].  So

        L_lam = E_p L_lam' - sum c L_mu

    fills the table in one pass in (degree, lex) order, from S^T L_() = S^T.
    The order, each image and its checks (lam has coefficient 1 and every
    mu is already built) are the algebra's plan, made once and shared by
    every run on it.  By induction L_lam is a polynomial in e_1..e_k that
    sends the unit to lam; since e_1..e_k commute, which GradedAlgebra's
    constructor asserted, it is multiplication by lam on every class the
    unit reaches, and L_lam = L_lam' E_p as well.  Labels that are not
    partitions (the section's beta) get no entry.

    On the row blocks, s_j^T L_lam = (s_j^T L_lam') E_p, so each step is
    one linalg.sparse_mul_sum over the s seed rows,
    [(1, ops[lam'], E_p)] + [(-c, I_s, ops[mu]) ...], against E_p's rows.
    A seed of a few vectors costs a few rows per label.
    """
    unit = [{j: 1} for j in range(len(seed))]
    ops = {(): seed}
    for lam, p, lam_prime, corrections in alg.plan:
        terms = [(c, unit, ops[mu]) for mu, c in corrections]
        ops[lam] = linalg.sparse_mul_sum([(1, ops[lam_prime], alg.e_ops[p])] + terms)
    return ops


def trace_row(alg: GradedAlgebra) -> dict:
    """The row sum of e_lam^T L_lam over the labels lam with an operator,
    as one sparse row, by one pass over the plan in reverse.

    A plan step L_lam = E_p L_lam' + sum c L_mu gives, for any row y,
    y^T L_lam = (y^T E_p) L_lam' + sum c y^T L_mu.  So each label keeps a
    pending row y_lam, starting at e_lam, and its step hands it on: y_lam^T
    E_p to lam' and c y_lam^T to each mu.  Only later steps name lam, so
    y_lam is complete when its own step comes, one single-row
    linalg.sparse_mul_sum of its pending terms, and y_() is the sum.
    Labels without an operator (the section's beta) get no term.
    Multiplication by c shifts the residue of the degree mod r by |c| (the
    constructor's require_graded checks this), so the sum vanishes off the
    residue-0 piece, and a nonzero there raises.
    """
    unit = [{0: 1}]
    labels = [()] + [lam for lam, *_ in alg.plan]
    pending = {lab: [(1, unit, [{alg.index[lab]: 1}])] for lab in labels}
    for lam, p, lam_prime, corrections in reversed(alg.plan):
        y = linalg.sparse_mul_sum(pending.pop(lam))
        pending[lam_prime].append((1, y, alg.e_ops[p]))
        for mu, c in corrections:
            pending[mu].append((c, unit, y))
    row = linalg.sparse_mul_sum(pending[()])[0]
    if any(alg.degrees[c] % alg.r for c in row):
        raise InternalConsistencyError("the trace vector has a nonzero off the residue-0 piece")
    return row


def mult_operators(alg: GradedAlgebra) -> dict:
    """Multiplication operator of every partition label, dense, in basis
    order: label_recursion seeded with the identity, whose row block for lam
    is L_lam's rows.  No command calls it."""
    dim = len(alg.basis)
    ops = label_recursion(alg, [{i: 1} for i in range(dim)])
    return {lab: [[row.get(j, 0) for j in range(dim)] for row in ops[lab]] for lab in alg.basis if lab in ops}


def h_operators(columns: dict[int, list[dict]], top: int, seeds: list[dict]) -> list[list[dict]]:
    """H_m = sigma_m (the complete homogeneous h_m) evaluated on e_1..e_k and
    applied to the seed vectors, for the last k degrees top - k < m <= top:
    block m is stored seed-major, row j the image (H_m s_j)^T of seed
    s_j = seeds[j], as sparse rows.

    H_0 = I and H_m = sum over i <= min(m, k) of (-1)^(i+1) E_i H_(m-i), from
    sum (-1)^i e_i h_(m-i) = 0, so (H_m s_j)^T = sum (-1)^(i+1)
    (H_(m-i) s_j)^T E_i^T: each step is one linalg.sparse_mul_sum over the
    seed rows against columns[i], the rows of E_i^T, and only the last k
    blocks are kept.  No step needs the E_i to commute;
    seeded with every unit vector, block m is H_m^T.
    """
    k = len(columns)
    window = [seeds]
    for m in range(1, top + 1):
        terms = [((-1) ** (i + 1), window[-i], columns[i]) for i in range(1, min(m, k) + 1)]
        window = (window + [linalg.sparse_mul_sum(terms)])[-k:]
    return window


def h_relation_check(alg: GradedAlgebra, target: list[dict]) -> bool:
    """Whether h_{n-k+1} = ... = h_{n-1} = 0 and h_n = (-1)^(k+1) T in alg,
    n = alg.box.n, with h_m = sigma_m evaluated on e_1..e_k: the vanishing
    blocks of h_operators are zero and its top block is (-1)^(k+1) times the
    seeds times T^T, with the rows of T^T given as sparse rows (target): I
    for Gr(k, n) at q = 1, E_1^T for a section.  It runs on the unit and on
    every basis label that label_plan does not build, and that proves the
    identities on all of alg (see the module docstring)."""
    built = {lam for lam, *_ in alg.plan}
    seeds = [{i: 1} for i, lab in enumerate(alg.basis) if lab == () or lab not in built]
    *vanishing, top = h_operators(alg.columns, alg.box.n, seeds)
    return not any(map(any, vanishing)) and top == linalg.sparse_mul_sum([((-1) ** (alg.k + 1), seeds, target)])


def presentation_check(box: Box) -> bool:
    """Verify sigma_{n-k+1} = ... = sigma_{n-1} = 0 and sigma_n = (-1)^{k+1} q
    at q = 1 in QH(Gr(k, n)): h_relation_check with T = I."""
    return h_relation_check(grassmannian(box), [{i: 1} for i in range(len(schubert_basis(box)))])


def commuting(ops: list[list[dict]]) -> bool:
    """Whether every two operators, given as sparse rows, commute, checked
    entry by entry on their integral multiples: D_a D_b (ab - ba) = 0."""
    ops = list(map(linalg.integral_multiple, ops))
    return not any(
        any(linalg.sparse_mul_sum([(1, a, b), (-1, b, a)])) for i, a in enumerate(ops) for b in ops[i + 1 :]
    )


def semisimple_test(ops: list[Matrix]) -> bool:
    """Trace-form criterion: a commutative algebra is semisimple iff the Gram
    matrix trace(ops_i ops_j) of its regular representation is nonsingular.

    ops[c] multiplies by the c-th basis element, in that basis, and the
    operators commute.  The Gram matrix is taken by its definition, one
    linalg.trace_product per pair.  No verdict calls it: every ring's verdict
    reads the trace vector, and the tests compare the two.
    """
    gram = [[linalg.trace_product(a, b) for b in ops] for a in ops]
    return linalg.det_bareiss(gram) != 0


def trace_form_rows(alg: GradedAlgebra) -> list[dict]:
    """The trace-form Gram matrix trace(L_a L_b) as sparse rows, in basis
    order, from the trace vector t_c = trace(L_c) of one reverse pass over
    the label plan (trace_row), one thin label recursion and no label
    operator.

    t^T = sum over labels lam of e_lam^T L_lam, so t_c = sum over i of
    (L_i e_c)_i, which commutativity (L_i e_c = L_c e_i) makes trace(L_c).
    With phi(x) = trace(L_x), the pairing with the quantum Euler class
    (Abrams), trace(L_a L_b) = phi(a b), so Gram row a is t^T L_a: the label
    recursion seeded with t alone.  A label with no operator (the section's
    beta) gets an empty row.
    """
    rows = label_recursion(alg, [trace_row(alg)])
    return [rows[lab][0] if lab in rows else {} for lab in alg.basis]


def trace_form_nonsingular(alg: GradedAlgebra) -> bool:
    """Whether the trace form of alg is nondegenerate, block by block: the
    Gram matrix of trace_form_rows on the residue blocks rho against -rho,
    outside which a nonzero raises (linalg.block_nonsingular).  Every basis
    label must have an operator; the section's beta raises.  No d x d
    matrix is made."""
    if len(alg.plan) + 1 != len(alg.basis):
        raise InternalConsistencyError("the trace form needs every basis class's operator")
    blocks = [(piece, alg.pieces[-rho % alg.r]) for rho, piece in enumerate(alg.pieces)]
    return linalg.block_nonsingular(trace_form_rows(alg), blocks)


def qh_semisimple(box: Box) -> Verdict:
    """Trace-form semisimplicity of QH(Gr(k, n)): the trace form is
    nondegenerate (trace_form_nonsingular)."""
    return Verdict(trace_form_nonsingular(grassmannian(box)), "trace-form", None)
