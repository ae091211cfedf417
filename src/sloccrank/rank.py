"""Exact rank and determinant of scalar matrices, plus a floating cross-check.

``exact_rank`` is a multi-prime modular engine whose answer is proven exact.
Each row is scaled by the lcm of its denominators, so every entry lies in
Z[i, sqrt2], the integers of Q(zeta_8).  The matrix is then eliminated, with
first-nonzero pivoting, over F_p for word-size primes p = 1 (mod 8), where
i -> w^2 and sqrt2 -> w + 1/w for a primitive 8th root of unity w mod p.
A rank mod p never exceeds the true rank, so for every column prefix the
engine keeps the largest rank any prime has shown.  Primes are added until
their product exceeds B^2, where B bounds every conjugate of every minor
that could still be missing (Hadamard's inequality on the entries' integer
coordinates).  A minor that vanishes mod all those primes then has a norm
divisible by their product yet smaller than it, so the minor is zero: every
prefix rank, hence the rank and the pivot columns, is exact.  No tolerance
is involved.

``exact_det`` runs fraction-free (Bareiss) elimination over Q(i, sqrt2).
The numeric rank goes through an SVD of the complex-double image of the
matrix and acts as an independent oracle for the exact path.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from .coeffmatrix import CoeffMatrix
from .scalar import ONE, ZERO, Scalar

__all__ = [
    "RankResult",
    "ShapeError",
    "NumericFailure",
    "exact_rank",
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


def _integer_rows(grid) -> list[list[tuple[int, int, int, int]]]:
    """Entries as (Re a, Im a, Re b, Im b) for a + b*sqrt2, each row scaled to ints.

    Scaling a row by a nonzero integer changes neither the rank nor the pivots.
    """
    rows = []
    for row in grid:
        coords = [x.coords for x in row]
        scale = math.lcm(*(x[4] for x in coords))
        scaled = []
        for a, b, c, d, den in coords:
            k = scale // den
            scaled.append((a * k, b * k, c * k, d * k))
        rows.append(scaled)
    return rows


def _pivots_mod(rows, p: int, i_p: int, s_p: int) -> list[int]:
    """Pivot columns of the F_p image under first-nonzero pivoting.

    ``active`` holds the nonzero rows not yet used as pivots, trimmed to the
    columns not yet eliminated; elimination ends when it runs empty.
    """
    images = ([(a + b * i_p + (c + d * i_p) * s_p) % p for a, b, c, d in row] for row in rows)
    active = [row for row in images if any(row)]
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


def _minor_bounds(rows) -> list[int]:
    """out[k] bounds |N(m)| for every nonzero k x k minor m, k <= min(rows, cols).

    Each conjugate of an entry a + b*sqrt2 has modulus at most
    e = |Re a| + |Im a| + 2(|Re b| + |Im b|).  By Hadamard, each conjugate of
    m has squared modulus at most the product of the k largest row sums of
    e^2, and likewise of column sums; a row or column of a nonzero minor has
    a sum of at least 1.  N(m) is the product of the four conjugates.
    """
    squares = [
        [(abs(a) + abs(b) + 2 * (abs(c) + abs(d))) ** 2 for a, b, c, d in row] for row in rows
    ]
    size = min(len(squares), len(squares[0]))
    products = []
    for sums in ([sum(row) for row in squares], [sum(col) for col in zip(*squares)]):
        out = [1]
        for value in sorted(sums, reverse=True)[:size]:
            out.append(out[-1] * max(value, 1))
        products.append(out)
    return [min(by_row, by_col) ** 2 for by_row, by_col in zip(*products)]


def exact_rank(matrix) -> RankResult:
    """Rank over Q(i, sqrt2) and the echelon pivot columns, certified exact.

    The pivot columns are those that raise the rank of the columns before
    them, as first-nonzero elimination finds them.  No threshold is involved.
    """
    grid = _grid(matrix)
    if not grid or not grid[0]:
        return RankResult(0, ())
    rows = _integer_rows(grid)
    nrows, ncols = len(rows), len(rows[0])
    # best[c]: the largest rank of columns 0..c seen modulo any prime so far.
    best = [0] * ncols
    modulus = 1
    bounds = None
    k = 0
    while True:
        p, i_p, s_p = _field(k)
        k += 1
        modulus *= p
        found = set(_pivots_mod(rows, p, i_p, s_p))
        rank = 0
        for c in range(ncols):
            rank += c in found
            best[c] = max(best[c], rank)
        # Columns 0..c hold rank at most min(c+1, nrows); below that, a
        # minor of size best[c]+1 may have vanished modulo every prime so far.
        missing = max((b + 1 for c, b in enumerate(best) if b < min(c + 1, nrows)), default=0)
        if not missing:
            break
        if bounds is None:
            bounds = _minor_bounds(rows)
        if modulus > bounds[missing]:
            break
    pivot_columns = tuple(c for c in range(ncols) if best[c] > (best[c - 1] if c else 0))
    return RankResult(best[-1], pivot_columns)


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
