"""Exact rank and determinant of scalar matrices, plus a floating cross-check.

``exact_rank`` is a multi-prime modular engine whose answer is proven exact.
Each row is scaled by the lcm of its denominators, so every entry lies in
Z[i, sqrt2], the integers of Q(zeta_8).  The matrix is then eliminated, with
first-nonzero pivoting, over F_p for word-size primes p = 1 (mod 8), where
i -> w^2 and sqrt2 -> w + 1/w for a primitive 8th root of unity w mod p.
A rank mod p never exceeds the true rank, so for every column prefix the
engine keeps the largest rank any prime has shown.

Stop rule.  Let d in {1, 2, 4} be the degree of the smallest of Q, Q(i),
Q(sqrt2), Q(i*sqrt2) holding every entry, and P the Hadamard bound (from the
entries' integer coordinates) on |s(m)|^2 for every conjugate s(m) of every
minor m that could still be missing.  Primes are added until their product
M satisfies M^2 > P^d.  Proof: each p = 1 (mod 8) splits completely, so a
minor m that vanishes mod p lies in a prime of norm p and p divides
N_{K/Q}(m); M then divides that norm, which is at most P^(d/2) < M, so
m = 0.  Every prefix rank, hence the rank and the pivot columns, is exact.
No tolerance is involved.

``exact_rank`` also takes the cuts ``state_cuts`` makes of a state, and
ranks them on the same core without laying any matrix out: the state is
scaled to Z[i, sqrt2] once, by one common denominator, reduced once per
prime to a residue vector (made on first use and shared by the cuts), and
each cut reads its residue rows and its e^2 sums through an index table
built from the cut's row and column parts of the basis indices.

``exact_det`` runs fraction-free (Bareiss) elimination over Q(i, sqrt2).
The numeric rank goes through an SVD of the complex-double image of the
matrix and acts as an independent oracle for the exact path.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from dataclasses import dataclass

from .coeffmatrix import CoeffMatrix, QubitPermutation, _cut_index
from .scalar import ONE, ZERO, Scalar
from .states import PureState

__all__ = [
    "RankResult",
    "ShapeError",
    "NumericFailure",
    "StateCut",
    "exact_rank",
    "state_cuts",
    "exact_det",
    "numeric_rank",
    "to_complex_array",
]


@dataclass(frozen=True)
class RankResult:
    rank: int
    pivot_columns: tuple[int, ...]


class ShapeError(ValueError):
    """Operation requires a differently shaped matrix (e.g. square)."""


class NumericFailure(RuntimeError):
    """The floating-point backend failed to converge."""


def _grid(matrix) -> list[list[Scalar]]:
    if isinstance(matrix, CoeffMatrix):
        return [list(row) for row in matrix.entries]
    return [list(row) for row in matrix]


# --- prime fields ------------------------------------------------------------

_PRIME_LIMIT = 1 << 62
# Miller-Rabin with these bases is deterministic below 3.3e24, beyond 2^64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (p, i_p, s_p) with p = 1 (mod 8), i_p^2 = -1 and s_p^2 = 2 (mod p), largest
# p first; found on first use and kept for the life of the process.  The list
# only grows, under the lock, so no prime can enter it twice.
_fields: list[tuple[int, int, int]] = []
_fields_lock = threading.Lock()


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _field(k: int) -> tuple[int, int, int]:
    """The k-th prime field below 2^62 that holds i and sqrt2."""
    if k < len(_fields):
        return _fields[k]
    with _fields_lock:
        while len(_fields) <= k:
            p = _fields[-1][0] - 8 if _fields else _PRIME_LIMIT - 7
            while not _is_prime(p):
                p -= 8
            g = 2
            while pow(g, (p - 1) // 2, p) != p - 1:
                g += 1
            # g is a non-residue, so w^4 = g^((p-1)/2) = -1: w has order 8.
            w = pow(g, (p - 1) // 8, p)
            _fields.append((p, w * w % p, (w + pow(w, 7, p)) % p))
    return _fields[k]


# --- exact rank --------------------------------------------------------------


def _integers(coords) -> list[tuple[int, int, int, int]]:
    """(a, b, c, d, den) coordinates over the lcm of the dens, as (a, b, c, d) ints.

    Scaling by a nonzero integer changes neither a rank nor the pivots.
    """
    # A list, not a generator: a star-argument tuple built from a generator is
    # resized, which strands one tuple in CPython's free lists per call.
    scale = math.lcm(*[x[4] for x in coords])
    out = []
    for a, b, c, d, den in coords:
        k = scale // den
        out.append((a * k, b * k, c * k, d * k))
    return out


def _degree(entries) -> int:
    """[K : Q] for the smallest of Q, Q(i), Q(sqrt2), Q(i*sqrt2) holding every entry.

    An entry (a, b, c, d) is a + b*i + (c + d*i)*sqrt2: the field is Q when
    every b, c and d is zero, and has degree 2 when only one of b, c, d is
    ever nonzero.
    """
    parts = sum(map(any, list(zip(*entries))[1:]))
    return 1 << min(parts, 2)


def _residues(entries, p: int, i_p: int, s_p: int) -> list[int]:
    """Each entry's image in F_p, where i -> i_p and sqrt2 -> s_p."""
    return [(a + b * i_p + (c + d * i_p) * s_p) % p for a, b, c, d in entries]


def _squares(entries) -> list[int]:
    """e^2 per entry, where e = |a| + |b| + 2(|c| + |d|) bounds every conjugate's modulus."""
    return [(abs(a) + abs(b) + 2 * (abs(c) + abs(d))) ** 2 for a, b, c, d in entries]


def _pivots_mod(rows, p: int) -> list[int]:
    """Pivot columns of residue rows mod p under first-nonzero pivoting.

    ``active`` holds the nonzero rows not yet used as pivots, trimmed to the
    columns not yet eliminated; elimination ends when it runs empty.
    """
    active = [row for row in rows if any(row)]
    pivots = []
    col = 0
    while active:
        for k, row in enumerate(active):
            if row[0]:
                break
        else:
            active = [row[1:] for row in active]
            col += 1
            continue
        lead = active.pop(k)
        inv = pow(lead[0], -1, p)
        tail = lead[1:]
        remaining = []
        for row in active:
            f = row[0] * inv % p
            row = [(x - f * y) % p for x, y in zip(row[1:], tail)] if f else row[1:]
            if any(row):
                remaining.append(row)
        active = remaining
        pivots.append(col)
        col += 1
    return pivots


def _minor_bounds(row_sums, col_sums) -> list[int]:
    """out[k] bounds |s(m)|^2 for every conjugate s(m) of every nonzero k x k minor m.

    By Hadamard, |s(m)|^2 is at most the product of the k largest row sums of
    e^2, and likewise of the column sums; a row or column of a nonzero minor
    has a sum of at least 1.
    """
    size = min(len(row_sums), len(col_sums))
    products = []
    for sums in (row_sums, col_sums):
        out = [1]
        for value in sorted(sums, reverse=True)[:size]:
            out.append(out[-1] * max(value, 1))
        products.append(out)
    return [min(by_row, by_col) for by_row, by_col in zip(*products)]


def _certified_rank(residues, square_sums, degree: int, ncols: int) -> RankResult:
    """Rank and pivots from residue rows, certified by the degree-aware stop rule.

    ``residues(k)`` gives the matrix's rows modulo the k-th prime and
    ``square_sums()`` the row and column sums of e^2; every entry lies in a
    field of degree ``degree``.
    """
    # best[c]: the largest rank of columns 0..c seen modulo any prime so far.
    best = [0] * ncols
    modulus = 1
    bounds = None
    k = 0
    while True:
        rows = residues(k)
        p = _field(k)[0]
        k += 1
        modulus *= p
        found = set(_pivots_mod(rows, p))
        rank = 0
        for c in range(ncols):
            rank += c in found
            best[c] = max(best[c], rank)
        # Columns 0..c hold rank at most min(c+1, rows); below that, a
        # minor of size best[c]+1 may have vanished modulo every prime so far.
        missing = max((b + 1 for c, b in enumerate(best) if b < min(c + 1, len(rows))), default=0)
        if not missing:
            break
        if bounds is None:
            bounds = _minor_bounds(*square_sums())
        if modulus * modulus > bounds[missing] ** degree:
            break
    pivot_columns = tuple(c for c in range(ncols) if best[c] > (best[c - 1] if c else 0))
    return RankResult(best[-1], pivot_columns)


class _ScaledState:
    """A state scaled to Z[i, sqrt2] by the lcm of its denominators.

    ``squares[j]`` is e^2 of amplitude j (0 where there is none), and
    ``vector(k)`` the amplitudes' residues modulo the k-th prime, made on
    first use and kept.
    """

    __slots__ = ("state", "degree", "squares", "_indices", "_entries", "_vectors")

    def __init__(self, state: PureState) -> None:
        self.state = state
        self._indices = list(state.amps)
        self._entries = _integers([state.amps[j].coords for j in self._indices])
        self.degree = _degree(self._entries)
        self.squares = [0] * (1 << state.n)
        for j, square in zip(self._indices, _squares(self._entries)):
            self.squares[j] = square
        self._vectors: list[list[int]] = []

    def vector(self, k: int) -> list[int]:
        while len(self._vectors) <= k:
            vec = [0] * (1 << self.state.n)
            for j, r in zip(self._indices, _residues(self._entries, *_field(len(self._vectors)))):
                vec[j] = r
            self._vectors.append(vec)
        return self._vectors[k]


class StateCut:
    """The coefficient matrix of a state under ``sigma``, not laid out.

    Entry (i, j) is the amplitude at basis index ``table[i][j]``.  Cuts made
    by :func:`state_cuts` share one scaling of their state, so ``exact_rank``
    reduces the state once per prime however many cuts it ranks.
    ``entries`` lays the matrix out, equal to
    ``coefficient_matrix(state, sigma).entries``.
    """

    __slots__ = ("sigma", "table", "_scaled")

    def __init__(self, scaled: _ScaledState, sigma: QubitPermutation) -> None:
        rows, cols = _cut_index(sigma, scaled.state.n)
        self.sigma = sigma
        self.table = [[row | col for col in cols] for row in rows]
        self._scaled = scaled

    @property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        amps = self._scaled.state.amps
        return tuple(tuple(amps.get(j, ZERO) for j in row) for row in self.table)


def state_cuts(state: PureState, sigmas) -> Iterator[StateCut]:
    """The cut of ``state`` by each sigma, in order, all from one scaling of the state.

    The scaling is done here; each cut's index table is built as the
    iterator reaches it, so only one table need be alive at a time.
    """
    scaled = _ScaledState(state)
    return (StateCut(scaled, sigma) for sigma in sigmas)


def exact_rank(matrix) -> RankResult:
    """Rank over Q(i, sqrt2) and the echelon pivot columns, certified exact.

    The pivot columns are those that raise the rank of the columns before
    them, as first-nonzero elimination finds them.  No threshold is involved.
    ``matrix`` is a ``CoeffMatrix`` or a grid of scalars, each row scaled on
    its own, or a :class:`StateCut`, read from its state's shared scaling.
    """
    if isinstance(matrix, StateCut):
        scaled, table = matrix._scaled, matrix.table

        def residues(k):
            vec = scaled.vector(k)
            return [[vec[j] for j in row] for row in table]

        def square_sums():
            squares = scaled.squares
            return ([sum(squares[j] for j in row) for row in table],
                    [sum(squares[j] for j in col) for col in zip(*table)])

        return _certified_rank(residues, square_sums, scaled.degree, len(table[0]))

    grid = _grid(matrix)
    if not grid or not grid[0]:
        return RankResult(0, ())
    rows = [_integers([x.coords for x in row]) for row in grid]

    def residues(k):
        field = _field(k)
        return [_residues(row, *field) for row in rows]

    def square_sums():
        squares = [_squares(row) for row in rows]
        return [sum(row) for row in squares], [sum(col) for col in zip(*squares)]

    degree = _degree([x for row in rows for x in row])
    return _certified_rank(residues, square_sums, degree, len(grid[0]))


def exact_det(matrix) -> Scalar:
    """Exact determinant by fraction-free (Bareiss) elimination.

    The division by the previous pivot is exact at every step, which keeps
    intermediate entries from blowing up the way plain elimination would.
    """
    grid = _grid(matrix)
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ShapeError(f"determinant needs a square matrix, got {n}x{len(grid[0]) if grid else 0}")
    if n == 0:
        return ONE
    sign = 1
    previous = ONE
    for k in range(n - 1):
        if not grid[k][k]:
            swap = None
            for i in range(k + 1, n):
                if grid[i][k]:
                    swap = i
                    break
            if swap is None:
                return ZERO
            grid[k], grid[swap] = grid[swap], grid[k]
            sign = -sign
        pivot = grid[k][k]
        prev_inv = previous.inverse()
        for i in range(k + 1, n):
            row = grid[i]
            head = row[k]
            lead = grid[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - head * lead[j]) * prev_inv
            row[k] = ZERO
        previous = pivot
    det = grid[n - 1][n - 1]
    return det if sign == 1 else -det


def to_complex_array(matrix) -> np.ndarray:
    """Complex-double image of a scalar matrix."""
    import numpy as np

    grid = _grid(matrix)
    return np.array([[complex(entry) for entry in row] for row in grid], dtype=complex)


def numeric_rank(matrix, tol: float | None = None) -> int:
    """Singular-value rank of the floating image of ``matrix``.

    The default threshold is max(rows, cols) * machine epsilon * largest
    singular value; a matrix whose largest singular value is zero has rank 0.
    An explicit ``tol`` must be finite and nonnegative.
    """
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    import numpy as np

    array = to_complex_array(matrix)
    if array.size == 0:
        return 0
    try:
        singular_values = np.linalg.svd(array, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"SVD did not converge: {exc}") from exc
    if singular_values.size == 0 or singular_values[0] == 0.0:
        return 0
    if tol is None:
        tol = max(array.shape) * np.finfo(float).eps * float(singular_values[0])
    return int((singular_values > tol).sum())
