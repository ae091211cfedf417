"""Local (single-qubit) operators and the executable transformation identities.

The central fact being exercised: if a state is hit by a tensor product of
2x2 operators, its coefficient matrix is multiplied on the left by the row
half of the product and on the right by the transposed column half.  Rank
can therefore never increase, and is preserved when every operator is
invertible.  ``verify_matrix_equation`` recomputes both sides in opposite
orders.  The left side transforms the state qubit by qubit
(``apply_local``) and then reshapes it.  The right side reshapes first and
then applies each slot's operator to the matrix, picking the operator of
the qubit that ``sigma`` puts in that slot.  Both sides compute on integer
coordinates: the amplitudes and each operator are scaled to Z[i, sqrt2]
once (``scalar.scaled_coords``), every pair is mixed on plain ints
(``scalar.mix``), and the scales are divided out only when the canonical
scalars are made at the end.  The two sides share ``coefficient_matrix``,
that scaling and that coordinate arithmetic, but no transform code: the
right side neither calls ``apply_local`` nor reuses its loop.  So a pass
does not check the reshaping itself; it shows that relabeling and the
choice of operator commute.
"""

from __future__ import annotations

import json
import random

from .coeffmatrix import IDENTITY, QubitPermutation, coefficient_matrix, enumerate_sigmas
from .rank import ShapeError, exact_det, exact_rank, state_cuts
from .scalar import (
    GaussRational,
    ONE,
    ParseError,
    Scalar,
    _make,
    as_scalar,
    mix,
    scalar_format,
    scalar_parse,
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
    "operators_to_json",
    "operators_from_json",
    "save_operators",
    "load_operators",
]


class LocalOperator:
    """A 2x2 scalar matrix acting on one qubit; need not be invertible."""

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        rows = tuple(tuple(as_scalar(entry) for entry in row) for row in entries)
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise ValueError("a local operator is a 2x2 matrix")
        self.entries = rows

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


_ZERO4 = (0, 0, 0, 0)


def apply_local(state: PureState, ops) -> PureState:
    """Act with one operator per qubit via successive single-qubit contractions.

    Costs O(n * 2^n) products of integer coordinates and never materializes
    the full tensor product.  The amplitudes are scaled to Z[i, sqrt2] once,
    each operator by its own scale, which multiplies the common denominator
    ``den``; canonical scalars are made once, at the end.  Singular
    operators may annihilate the state entirely; the result is then the
    tagged zero state.
    """
    ops = list(ops)
    n = state.n
    if len(ops) != n:
        raise ValueError(f"need exactly {n} operators, got {len(ops)}")
    den, coords = scaled_coords(state.amps.values())
    amps = dict(zip(state.amps, coords))
    for qubit in range(1, n + 1):
        (a, b), (c, d) = ops[qubit - 1].entries
        e, (a, b, c, d) = scaled_coords((a, b, c, d))
        den *= e
        mask = 1 << (n - qubit)
        updated: dict[int, tuple[int, int, int, int]] = {}
        for base in {index & ~mask for index in amps}:
            lo = amps.get(base, _ZERO4)
            hi = amps.get(base | mask, _ZERO4)
            new_lo = mix(a, lo, b, hi)
            new_hi = mix(c, lo, d, hi)
            if new_lo != _ZERO4:
                updated[base] = new_lo
            if new_hi != _ZERO4:
                updated[base | mask] = new_hi
        amps = updated
    return PureState(n, {index: _make(*x, den) for index, x in amps.items()}, allow_zero=True)


def _predicted_matrix(state: PureState, ops, sigma: QubitPermutation):
    """Right side of the equation that ``verify_matrix_equation`` checks.

    M(sigma) is laid out as one flat row-major list of integer coordinates:
    the scaled amplitudes sit at ``cut.positions()`` and zeros elsewhere.
    Entry (i, j) sits at i << w | j and slot s of the cut owns bit n - s of
    that position, row slots and column slots alike.  The Kronecker
    products on either side then act as n mode products: for each slot s,
    the operator of the qubit ``sigma.image(s)``, scaled like the
    amplitudes, mixes every pair of positions that differ only in slot s's
    bit.  That is O(n * 2^n) products of integer coordinates, and a pair of
    zeros is skipped, so a sparse matrix stays cheap until the operators
    fill it.  The scalars are made once, at the end.
    """
    n = state.n
    cut = coefficient_matrix(state, sigma)
    den, coords = scaled_coords(state.amps.values())
    flat = [_ZERO4] * (1 << n)
    for position, x in zip(cut.positions(), coords):
        flat[position] = x
    for slot in range(1, n + 1):
        (a, b), (c, d) = ops[sigma.image(slot) - 1].entries
        e, (a, b, c, d) = scaled_coords((a, b, c, d))
        den *= e
        bit = 1 << (n - slot)
        for base in range(0, len(flat), 2 * bit):
            for lo in range(base, base + bit):
                x, y = flat[lo], flat[lo | bit]
                if x != _ZERO4 or y != _ZERO4:
                    flat[lo], flat[lo | bit] = mix(a, x, b, y), mix(c, x, d, y)
    entries = [_make(*x, den) for x in flat]
    cols = cut.cols
    return tuple(tuple(entries[k:k + cols]) for k in range(0, len(entries), cols))


def _predicted_det(det: Scalar, ops, n: int) -> Scalar:
    """Right side of the law that ``verify_det_relation`` checks, given the old ``det``."""
    det_product = ONE
    for op in ops:
        det_product = det_product * op.det()
    return det * det_product ** (1 << ((n - 2) // 2))


def verify_matrix_equation(state: PureState, ops, sigma: QubitPermutation | None = None) -> bool:
    """Check the reshaping identity for the transformed state, exactly.

    Left side: coefficient matrix of the transformed state under ``sigma``.
    Right side: (product of row-slot operators) * matrix * (product of
    column-slot operators)^T, with operators indexed by the qubit occupying
    each slot after the relabeling.
    """
    sigma = IDENTITY if sigma is None else sigma
    ops = list(ops)
    lhs = coefficient_matrix(apply_local(state, ops), sigma)
    return lhs.entries == _predicted_matrix(state, ops, sigma)


def verify_det_relation(state: PureState, ops) -> bool:
    """Check the determinant scaling law for an even qubit count, exactly.

    The determinant of the transformed matrix equals the original
    determinant times the product of all operator determinants raised to
    2^((n - 2) / 2).
    """
    n = state.n
    if n % 2:
        raise ShapeError("the determinant relation needs an even number of qubits")
    ops = list(ops)
    lhs = exact_det(coefficient_matrix(apply_local(state, ops)))
    return lhs == _predicted_det(exact_det(coefficient_matrix(state)), ops, n)


def verify_trials(state: PureState, trials: int, seed: int, allow_singular: bool = False) -> dict:
    """Randomized exact checks of the identities; returns runs and failures per check.

    Each trial draws one operator per qubit (invertible unless
    ``allow_singular``) and one enumerated swap set from ``seed``, applies the
    operators once, and checks on that transformed state: the matrix equation
    under the identity and under the swap set, the ranks on every swap set
    (equal to the untransformed ones, or no larger with singular operators),
    and for an even qubit count the determinant law.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    n = state.n
    sigmas = enumerate_sigmas(n)
    base_ranks = tuple(exact_rank(cut).rank for cut in state_cuts(state, sigmas))
    base_det = exact_det(coefficient_matrix(state)) if n % 2 == 0 else None
    master = random.Random(seed)
    equation_failures = rank_failures = det_failures = 0
    for _ in range(trials):
        op_seed = master.randrange(2**32)
        ops = random_local_ops(n, op_seed) if allow_singular else random_invertible_ops(n, op_seed)
        sigma = sigmas[master.randrange(len(sigmas))]
        transformed = apply_local(state, ops)
        for s in (IDENTITY, sigma):
            if coefficient_matrix(transformed, s).entries != _predicted_matrix(state, ops, s):
                equation_failures += 1
        after = tuple(exact_rank(cut).rank for cut in state_cuts(transformed, sigmas))
        if allow_singular:
            rank_failures += any(a > b for a, b in zip(after, base_ranks))
        else:
            rank_failures += after != base_ranks
        if base_det is not None:
            det = exact_det(coefficient_matrix(transformed))
            det_failures += det != _predicted_det(base_det, ops, n)
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


def operators_to_json(ops) -> dict:
    """Row-major JSON form with entries in the scalar text grammar."""
    return {
        "ops": [[[scalar_format(entry) for entry in row] for row in op.entries] for op in ops]
    }


def operators_from_json(payload) -> list[LocalOperator]:
    if not isinstance(payload, dict) or set(payload) != {"ops"}:
        raise ValueError("operator payload must be an object with a single 'ops' key")
    raw = payload["ops"]
    if not isinstance(raw, list) or not raw:
        raise ValueError("'ops' must be a nonempty array of 2x2 matrices")
    ops = []
    for position, matrix in enumerate(raw):
        if (
            not isinstance(matrix, list)
            or len(matrix) != 2
            or any(not isinstance(row, list) or len(row) != 2 for row in matrix)
        ):
            raise ValueError(f"operator {position}: expected a 2x2 array of strings")
        entries = []
        for row in matrix:
            parsed_row = []
            for text in row:
                if not isinstance(text, str):
                    raise ValueError(f"operator {position}: entries must be strings")
                try:
                    parsed_row.append(scalar_parse(text))
                except ParseError as exc:
                    raise ValueError(f"operator {position}: bad scalar {text!r}: {exc}") from exc
            entries.append(tuple(parsed_row))
        ops.append(LocalOperator(entries))
    return ops


def save_operators(ops, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(operators_to_json(ops), handle, indent=2)
        handle.write("\n")


def load_operators(path) -> list[LocalOperator]:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:  # bad syntax, or an integer over the int-string limit
            raise ValueError(f"operator file is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ValueError("operator file is not valid JSON: nested too deeply") from exc
    return operators_from_json(payload)
