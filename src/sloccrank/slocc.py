"""Local (single-qubit) operators and the executable transformation identities.

The central fact being exercised: if a state is hit by a tensor product of
2x2 operators, its coefficient matrix is multiplied on the left by the row
half of the product and on the right by the transposed column half.  Rank
can therefore never increase, and is preserved when every operator is
invertible.  ``verify_matrix_equation`` recomputes both sides in opposite
orders.  The left side transforms the state qubit by qubit
(``apply_local``) and then reshapes it.  The right side reshapes first and
then applies each slot's operator to the matrix, picking the operator of
the qubit that ``sigma`` puts in that slot.  Each side is compared as a map
from row-major position to nonzero entry, since a transform drops zero lanes.

Both sides are one transform, ``_transform``, on integer coordinates and
whole vectors at a time.  The amplitudes and each operator are scaled to
Z[i, sqrt2] once (``_scaling``, ``_operator``), and a vector is held as four
planes, one Python int per coordinate of (1, i, sqrt2, i*sqrt2): lane k of
a plane holds that coordinate of the k-th entry of the vector as a signed
value of W bits, the plane being sum v_k * 2^(W*k).  Only the planes of the
state's field (``_Scaled.planes``) are packed; the others are the int 0.
One operator's pass over a bit of the lane index is a mode product: every
plane is split into LO, the lanes whose bit is 0, and HI, their partners,
shifted down, and the new planes are a*LO + b*HI and (c*LO + d*HI) shifted
up, each product taken coordinate by coordinate by ``scalar._product_rule``,
a small int times a whole plane.  A plane that is 0 gives sources that are
0, and a pass skips them, so a Gaussian vector under Gaussian operators
never does arithmetic on its sqrt2 planes.  To split, add BIAS, 2^(W-1) in
every lane, so that every lane holds v_k + 2^(W-1) in [0, 2^W) and no borrow
crosses a lane; mask the lanes (MASK) and take BIAS & MASK off again.  The
scales are divided out only when the canonical scalars are made at the end.

Why W holds.  mu(a, b, c, d) = |a| + |b| + 2(|c| + |d|)
(``scalar.coord_bound``) bounds every coordinate, and mu(u*x) <=
mu(u)*mu(x) under that product.  A pass therefore multiplies the largest
mu of a lane by at most the operator's growth, max(mu(a) + mu(b), mu(c) +
mu(d)), whatever the order of the passes.  W is the bit length of the
largest mu of the amplitudes, the square root of the largest e^2 that the
state's scaling keeps, plus that of every operator's growth, plus a sign
bit, rounded up to whole bytes: every lane lies in (-2^(W-1), 2^(W-1))
after every pass.

The two sides differ in where each amplitude is placed, in which
operator makes which pass, and in the order of the passes.
``apply_local`` puts index k in lane k and makes the passes in qubit
order, from the top bit of the lane index down.  The right side puts each
amplitude at its row-major position in M(sigma) (``cut.positions()``),
slot s's pass is made by the operator of qubit ``sigma.image(s)``, and the
passes run in reverse slot order, from the bottom bit up.  The right side
never calls ``apply_local``.  Under the identity cut the placement and the
operators coincide and only the order differs, so a pass there shows that
the passes commute, as exact mode products on distinct bits do and as a
fault in one pass's plane arithmetic in general does not.  Under any other
cut it also shows that relabeling and the choice of operator commute.

What a state keeps.  A ``PureState``'s amplitudes are read-only, so three
results are kept on it once taken: ``apply_local`` keeps the last image
with the operators that made it, ``exact_det`` the determinant of the
identity cut, and ``rank._scaling`` the scaled amplitudes and their e^2
(``squares()``), which every transform of it and every rank and
determinant of its cuts read.  Checks repeated on one (state, operators)
pair, such as ``verify_matrix_equation`` under several swap sets and
``verify_det_relation``, share one image, and every determinant-law check
on one state, or determinant of its identity cut, reuses its determinant.
Each right side of the matrix equation is still its own transform.
"""

from __future__ import annotations

import random
from math import prod

from .classify import rank_signature
from .coeffmatrix import IDENTITY, QubitPermutation, coefficient_matrix, enumerate_sigmas
from .rank import ShapeError, _scaling, exact_det
from .scalar import (
    GaussRational,
    ONE,
    Scalar,
    _make,
    _product_rule,
    as_scalar,
    coord_bound,
    scaled_coords,
)
from .states import PureState

__all__ = [
    "LocalOperator",
    "apply_local",
    "verify_matrix_equation",
    "verify_det_relation",
    "verify_trials",
    "random_invertible_ops",
    "random_local_ops",
]


class LocalOperator:
    """A 2x2 scalar matrix acting on one qubit; need not be invertible.

    ``_pass`` keeps the operator's mode product (``_operator``) once made.
    """

    __slots__ = ("entries", "_pass")

    def __init__(self, entries) -> None:
        rows = tuple(tuple(as_scalar(entry) for entry in row) for row in entries)
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise ValueError("a local operator is a 2x2 matrix")
        self.entries = rows
        self._pass = None

    def det(self) -> Scalar:
        e = self.entries
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]

    @property
    def is_invertible(self) -> bool:
        return bool(self.det())

    @classmethod
    def identity(cls) -> LocalOperator:
        return cls(((1, 0), (0, 1)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocalOperator):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"LocalOperator({[[str(e) for e in row] for row in self.entries]})"


def _operator(op: LocalOperator) -> tuple[int, list[list[tuple[int, int]]], int]:
    """(e, rows, growth): ``op`` scaled by e to Z[i, sqrt2], as one pass of the module docstring.

    The sources of a pass are LO's four planes and then HI's.  Row j lists
    the (coefficient, source) pairs summed into the low half of new plane j,
    and row 4 + j those of its high half: row j of ``scalar._product_rule``
    of each entry, int coefficients on the sources, zeros dropped.  ``growth``
    bounds the factor by which the pass multiplies the largest mu.  The
    operator keeps the triple, so each call after the first is a lookup.
    """
    if op._pass is None:
        e, entries = scaled_coords(op.entries[0] + op.entries[1])
        rules = [_product_rule(u) for u in entries]
        rows = [[(k, s) for s, k in enumerate(rules[left][j] + rules[left + 1][j]) if k]
                for left in (0, 2) for j in range(4)]
        mu = [coord_bound(u) for u in entries]
        op._pass = e, rows, max(mu[0] + mu[1], mu[2] + mu[3])
    return op._pass


def _mode_product(planes: list[int], rows, bias: int, count: int, width: int, block: int) -> list[int]:
    """One pass of ``rows``: lanes k and k + block are mixed for every k with k & block == 0.

    A plane that is 0 yields sources that are 0, and a source that is 0 is
    skipped: the pass does no arithmetic on it.
    """
    mask = int.from_bytes((b"\xff" * (width * block) + bytes(width * block)) * (count // (2 * block)), "little")
    low = bias & mask
    shift = 8 * width * block
    biased = [plane and plane + bias for plane in planes]  # a zero plane stays 0, and so do its sources
    sources = [x and (x & mask) - low for x in biased] + [x and (x >> shift & mask) - low for x in biased]
    del biased  # every plane is as wide as the vector: keep as few alive as the pass needs
    new = [sum(k * sources[s] for k, s in row if sources[s]) for row in rows]
    del sources
    return [new[j] + (new[4 + j] << shift) for j in range(4)]


def _transform(state: PureState, passes, positions) -> dict[int, Scalar]:
    """{lane: scalar}: ``state`` under ``passes``, its k-th amplitude placed in lane ``positions[k]``.

    The scaled amplitudes are packed into the planes of the module
    docstring, those of the state's field only (the others are 0), 2^n
    lanes of W bits (``width`` bytes) each written as two's complement, so
    that XOR with BIAS turns a lane into v + 2^(W-1) and taking BIAS off
    leaves v.  Each ``(block, op)`` of ``passes``, in
    order, then makes ``op``'s pass over the lane-index bit of value
    ``block``, and each operator's scale multiplies the common denominator
    ``den``.  Lane k holds its (a, b, c, d) over ``den``; zero lanes are
    dropped, and only here do the others become canonical scalars.
    """
    scaled = _scaling(state)
    den, coords = scaled.den, scaled.coords  # coords ends with the zero slot, which no position reads
    passes = [(block, _operator(op)) for block, op in passes]
    bits = scaled.largest().bit_length() + 1  # the largest mu, with the sign bit
    width = -(-(bits + sum(growth.bit_length() for _, (_, _, growth) in passes)) // 8)
    count = 1 << state.n
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    zero = bytes(width)
    planes = [0] * 4  # a plane outside the state's field is 0 in every lane
    for j in scaled.planes:
        cells = [zero] * count
        for position, x in zip(positions, coords):
            if x[j]:
                cells[position] = x[j].to_bytes(width, "little", signed=True)
        planes[j] = (int.from_bytes(b"".join(cells), "little") ^ bias) - bias
    del cells  # the planes hold them now; at n = 16 they are megabytes the passes need not keep
    for block, (e, rows, _) in passes:
        den *= e
        planes = _mode_product(planes, rows, bias, count, width, block)
    columns = []
    for plane in planes:
        if not plane:  # a Gaussian vector's sqrt2 planes
            columns.append([0] * count)
            continue
        data = ((plane + bias) ^ bias).to_bytes(width * count, "little")
        columns.append([int.from_bytes(data[k:k + width], "little", signed=True)
                        for k in range(0, width * count, width)])
    return {lane: _make(*x, den) for lane, x in enumerate(zip(*columns)) if any(x)}


def apply_local(state: PureState, ops) -> PureState:
    """Act with one operator per qubit via successive single-qubit contractions.

    ``_transform`` with the state's own indices as lane positions and the
    passes in qubit order: lane k holds the amplitude of index k, qubit q
    owns bit n - q of the lane index, and qubit q's pass mixes the lanes
    2^(n-q) apart.  That is n passes of a few dozen big-int operations
    each, O(n * 2^n * W) bit operations, and the full tensor product is
    never materialized.  The nonzero lanes are the new amplitudes; singular
    operators may annihilate the state, giving the tagged zero state.

    The state keeps its last image with the operators that made it: a call
    whose operators equal those, entry by entry and in qubit order, returns
    that same ``PureState`` and makes no pass.
    """
    ops = tuple(ops)
    if len(ops) != state.n:
        raise ValueError(f"need exactly {state.n} operators, got {len(ops)}")
    for position, op in enumerate(ops):
        if not isinstance(op, LocalOperator):
            raise TypeError(f"operator {position}: expected a LocalOperator, got {type(op).__name__}")
    kept = state._image  # read once: another thread may replace the pair meanwhile
    if kept is not None and kept[0] == ops:
        return kept[1]
    amps = _transform(state, [(1 << (state.n - q), op) for q, op in enumerate(ops, 1)], state.amps)
    image = PureState(state.n, amps, allow_zero=True)
    state._image = ops, image
    return image


def _predicted_matrix(state: PureState, ops, sigma: QubitPermutation) -> dict[int, Scalar]:
    """Right side of the matrix equation: its nonzero entries, keyed by row-major position.

    ``_transform`` with M(sigma) laid out row-major in the lanes: each
    amplitude sits at its position in ``cut.positions()``, so entry (i, j)
    sits in lane i << w | j and slot s of the cut owns bit n - s of the
    lane index, row slots and column slots alike.  The Kronecker products
    on either side then act as n mode products, slot s's pass made by the
    operator of the qubit ``sigma.image(s)``.  The passes run in reverse
    slot order, column slots first, M * B^T and then A * (M * B^T): the
    reverse of ``apply_local``'s order, so on the identity cut of two or
    more qubits the two sides never make the same sequence of passes.
    """
    n = state.n
    passes = [(1 << (n - s), ops[sigma.image(s) - 1]) for s in range(n, 0, -1)]
    return _transform(state, passes, coefficient_matrix(state, sigma).positions())


def _equation_holds(state: PureState, ops, transformed: PureState, sigma: QubitPermutation) -> bool:
    """The matrix equation under ``sigma`` for ``transformed`` = ``apply_local(state, ops)``.

    Both sides map row-major position in M(sigma) to nonzero entry, and a relabeling
    is a bijection of positions: the maps are equal exactly when the matrices are.
    """
    lhs = dict(zip(coefficient_matrix(transformed, sigma).positions(), transformed.amps.values()))
    return lhs == _predicted_matrix(state, ops, sigma)


def _det_law_holds(det: Scalar, ops, transformed: PureState) -> bool:
    """det M(psi') = det M(psi) * prod_q det(A_q)^(2^((n-2)/2)), given ``det`` and psi' = ``transformed``."""
    law = det * prod((op.det() for op in ops), start=ONE) ** (1 << ((transformed.n - 2) // 2))
    return exact_det(coefficient_matrix(transformed)) == law


def verify_matrix_equation(state: PureState, ops, sigma: QubitPermutation | None = None) -> bool:
    """Check the reshaping identity for the transformed state, exactly.

    Left side: coefficient matrix of the transformed state under ``sigma``.
    Right side: (product of row-slot operators) * matrix * (product of
    column-slot operators)^T, with operators indexed by the qubit occupying
    each slot after the relabeling.
    """
    ops = list(ops)
    return _equation_holds(state, ops, apply_local(state, ops), IDENTITY if sigma is None else sigma)


def verify_det_relation(state: PureState, ops) -> bool:
    """Check the determinant scaling law for an even qubit count, exactly.

    The determinant of the transformed matrix equals the original
    determinant times the product of all operator determinants raised to
    2^((n - 2) / 2).  A state keeps the determinant of its identity cut and
    its last image (``apply_local``), and the image keeps its own
    determinant: checks repeated on one state take its determinant once,
    and a check repeated with the same operators makes no pass and takes
    no determinant.
    """
    if state.n % 2:
        raise ShapeError("the determinant relation needs an even number of qubits")
    ops = list(ops)
    transformed = apply_local(state, ops)
    return _det_law_holds(exact_det(coefficient_matrix(state)), ops, transformed)


def verify_trials(state: PureState, trials: int, seed: int, allow_singular: bool = False) -> dict:
    """Randomized exact checks of the identities; returns runs and failures per check.

    Each trial draws one operator per qubit (invertible unless
    ``allow_singular``) and one enumerated swap set from ``seed``, applies the
    operators once, and checks on that transformed state: the matrix equation
    under the identity and under the swap set, the ranks on every swap set
    (equal to the untransformed ones, or no larger with singular operators),
    and for an even qubit count the determinant law.  Both sets of ranks are
    ``rank_signature`` over the enumerated swap sets: the untransformed
    state's once, and each trial's transformed state's.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    n = state.n
    sigmas = enumerate_sigmas(n)
    base_ranks = rank_signature(state, sigmas).ranks
    base_det = exact_det(coefficient_matrix(state)) if n % 2 == 0 else None
    master = random.Random(seed)
    equation_failures = rank_failures = det_failures = 0
    for _ in range(trials):
        op_seed = master.randrange(2**32)
        ops = random_local_ops(n, op_seed) if allow_singular else random_invertible_ops(n, op_seed)
        sigma = sigmas[master.randrange(len(sigmas))]
        transformed = apply_local(state, ops)
        for s in (IDENTITY, sigma):
            equation_failures += not _equation_holds(state, ops, transformed, s)
        after = rank_signature(transformed, sigmas).ranks
        if allow_singular:
            rank_failures += any(a > b for a, b in zip(after, base_ranks))
        else:
            rank_failures += after != base_ranks
        if base_det is not None:
            det_failures += not _det_law_holds(base_det, ops, transformed)
    rank_check = "monotonicity" if allow_singular else "invariance"
    return {
        "matrix_equation": {"runs": 2 * trials, "failures": equation_failures},
        f"rank_{rank_check}": {"runs": trials, "failures": rank_failures},
        "det_relation": {"runs": 0 if base_det is None else trials, "failures": det_failures},
    }


_POOL = 3  # random operator entries have re, im in [-3, 3]


def _random_operator(rng: random.Random) -> LocalOperator:
    def entry() -> Scalar:
        return GaussRational(rng.randint(-_POOL, _POOL), rng.randint(-_POOL, _POOL))

    return LocalOperator(((entry(), entry()), (entry(), entry())))


def random_local_ops(n: int, seed: int) -> list[LocalOperator]:
    """n independent Gaussian-integer operators; singular ones are allowed."""
    rng = random.Random(seed)
    return [_random_operator(rng) for _ in range(n)]


def random_invertible_ops(n: int, seed: int) -> list[LocalOperator]:
    """n Gaussian-integer operators, each resampled until its det is nonzero."""
    rng = random.Random(seed)
    ops = []
    while len(ops) < n:
        candidate = _random_operator(rng)
        if candidate.is_invertible:
            ops.append(candidate)
    return ops
