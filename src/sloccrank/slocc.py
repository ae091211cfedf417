"""Local (single-qubit) operators and the executable transformation identities.

The central fact being exercised: if a state is hit by a tensor product of
2x2 operators, its coefficient matrix is multiplied on the left by the row
half of the product and on the right by the transposed column half.  Rank
can therefore never increase, and is preserved when every operator is
invertible.  ``verify_matrix_equation`` recomputes both sides through
deliberately independent code paths (per-qubit contraction on one side,
explicit Kronecker products on the other), so a pass is informative.
"""

from __future__ import annotations

import json
import random

from .coeffmatrix import IDENTITY, QubitPermutation, coefficient_matrix, enumerate_sigmas
from .rank import ShapeError, exact_det, exact_rank, state_cuts
from .scalar import GaussRational, ONE, ParseError, Scalar, ZERO, as_scalar, scalar_format, scalar_parse
from .states import PureState

__all__ = [
    "LocalOperator",
    "apply_local",
    "kron_chain",
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


def apply_local(state: PureState, ops) -> PureState:
    """Act with one operator per qubit via successive single-qubit contractions.

    Costs O(n * 2^n) scalar multiplies and never materializes the full
    tensor product.  Singular operators may annihilate the state entirely;
    the result is then the tagged zero state.
    """
    ops = list(ops)
    n = state.n
    if len(ops) != n:
        raise ValueError(f"need exactly {n} operators, got {len(ops)}")
    amps = dict(state.amps)
    for qubit in range(1, n + 1):
        op = ops[qubit - 1].entries
        mask = 1 << (n - qubit)
        bases = {index & ~mask for index in amps}
        updated: dict[int, Scalar] = {}
        for base in bases:
            lo = amps.get(base, ZERO)
            hi = amps.get(base | mask, ZERO)
            new_lo = op[0][0] * lo + op[0][1] * hi
            new_hi = op[1][0] * lo + op[1][1] * hi
            if new_lo:
                updated[base] = new_lo
            if new_hi:
                updated[base | mask] = new_hi
        amps = updated
    return PureState(n, amps, allow_zero=True)


def kron_chain(ops):
    """Kronecker product of 2x2 operators; first operator owns the top bit.

    Entry (i, j) is the product over positions m of ops[m][i_m][j_m], where
    i_m, j_m are the bits of i and j read from the most significant end.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("kron_chain needs at least one operator")
    k = len(ops)
    dim = 1 << k
    grid = []
    for i in range(dim):
        row = []
        for j in range(dim):
            value = ONE
            for m, op in enumerate(ops):
                shift = k - 1 - m
                value = value * op.entries[(i >> shift) & 1][(j >> shift) & 1]
                if not value:
                    break
            row.append(value)
        grid.append(tuple(row))
    return tuple(grid)


def _matmul(left, right):
    inner = len(right)
    width = len(right[0])
    out = []
    for row in left:
        new_row = []
        for j in range(width):
            acc = ZERO
            for k in range(inner):
                if row[k] and right[k][j]:
                    acc = acc + row[k] * right[k][j]
            new_row.append(acc)
        out.append(tuple(new_row))
    return tuple(out)


def _transpose(grid):
    return tuple(zip(*grid))


def _predicted_matrix(state: PureState, ops, sigma: QubitPermutation):
    """Right side of the equation that ``verify_matrix_equation`` checks."""
    half = state.n // 2
    row_ops = [ops[sigma.image(slot) - 1] for slot in range(1, half + 1)]
    col_ops = [ops[sigma.image(slot) - 1] for slot in range(half + 1, state.n + 1)]
    left = kron_chain(row_ops) if row_ops else ((ONE,),)
    right = kron_chain(col_ops)
    return _matmul(_matmul(left, coefficient_matrix(state, sigma).entries), _transpose(right))


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
