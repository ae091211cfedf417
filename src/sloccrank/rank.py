"""Exact rank and determinant of scalar matrices, plus a floating cross-check.

``exact_rank`` is a multi-prime modular engine whose answer is proven exact.
It ranks a matrix from its block of nonzero rows and nonzero columns:
deleting zero rows and zero columns changes neither the rank nor which
nonzero columns are pivots, and the block's pivots map back through the
sorted column list.  A ``CoeffMatrix`` gives the row-major position of each
of its state's amplitudes, in O(terms), and is never laid out as scalars
here; a raw grid gives the positions of its nonzero entries.  The values
are scaled by the lcm of their denominators, so every value lies in
Z[i, sqrt2], the integers of Q(zeta_8); scaling by a nonzero integer
changes no rank and no pivot.  One more slot holds 0, the entry of every
empty cell of the block.  The values are reduced once per prime (or group
of primes, below) to a residue vector, made on first use; the cuts from
``state_cuts`` share one scaling, hence one residue vector per prime or
group, for their whole state.  The block, read from that vector through a
table of slots, is then eliminated, with first-nonzero pivoting, over F_p
for word-size primes p = 1 (mod 8), where i -> w^2 and sqrt2 -> w + 1/w for
a primitive 8th root of unity w mod p.  A rank mod p never exceeds the true
rank, so for every column prefix the engine keeps the largest rank any prime
has shown.

Stop rule.  Let d in {1, 2, 4} be the degree of the smallest of Q, Q(i),
Q(sqrt2), Q(i*sqrt2) holding every entry, and P the Hadamard bound (from the
entries' integer coordinates, summed along the block's rows and columns) on
|s(m)|^2 for every conjugate s(m) of every minor m that could still be
missing.  Primes are added until their product M satisfies M^2 > P^d.
Proof: each p = 1 (mod 8) splits completely, so a minor m that vanishes
mod p lies in a prime of norm p and p divides N_{K/Q}(m); M then divides
that norm, which is at most P^(d/2) < M, so m = 0.  Every prefix rank, hence
the rank and the pivot columns, is exact.  No tolerance is involved.  The
rule holds on the block as it does on the whole matrix: a zero row or
column would enter the Hadamard bound with the factor 1 (``_minor_bounds``
counts every sum as at least 1), and the cap min(c+1, rows) on the rank of
columns 0..c only tightens when the rows counted are the nonzero ones.

Prime groups.  The first prime is eliminated alone, so a block of full rank
costs one word-size elimination.  The further primes the rule asks for are
eliminated in groups of at most ``_GROUP``, once modulo each group's product
M.  With i_M and s_M the CRT lifts of the i_p and s_p, a + b*i + (c + d*i)*
sqrt2 -> a + b*i_M + (c + d*i_M)*s_M mod M is a ring map from Z[i, sqrt2]
to Z/M that reduces modulo each p of the group to that prime's map, so the
block's residues mod M reduce to its residues mod each p.  Say every pivot
the elimination mod M takes is a unit mod M.  A row skipped as a pivot is 0
mod M in that column, hence 0 mod every p; a unit pivot is nonzero mod every
p; and row operations mod M reduce to the same operations mod p.  A row
that is 0 mod p but not mod M is never a pivot mod M, as it could only lead
with a non-unit.  So modulo each p the elimination picks the same pivot
rows and columns, and the group counts as that many primes with the same
pivots.  A pivot that is nonzero but no unit mod M makes ``_pivots_mod``
raise, and the group's primes are eliminated again one at a time.  Each
group is sized from the ``missing`` left by the eliminations before it.
The rank and the pivots are therefore those of one prime at a time, and
so are the primes spent, unless a group raises a prefix rank: then up to
``_GROUP`` - 1 of its primes may be more than the rule needs.

``exact_det`` runs fraction-free (Bareiss) elimination over Q(i, sqrt2).
Every function here takes a ``CoeffMatrix`` or a grid of ints, Fractions
or scalars, and a grid entry of any other type is a ``TypeError``.  The
numeric rank goes through an SVD of the complex-double image of the
matrix and acts as an independent oracle for the exact path.
"""

from __future__ import annotations

import functools
import math
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .coeffmatrix import CoeffMatrix, coefficient_matrix
from .scalar import ONE, ZERO, Scalar, as_scalar
from .states import PureState

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RankResult",
    "ShapeError",
    "NumericFailure",
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
    """The floating-point image failed: an entry beyond double range, or no SVD."""


def _grid(matrix) -> list[list[Scalar]]:
    if isinstance(matrix, CoeffMatrix):
        return [list(row) for row in matrix.entries]
    return [[as_scalar(x) for x in row] for row in matrix]


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


@functools.lru_cache(maxsize=None)
def _ring(k: int, size: int) -> tuple[int, int, int]:
    """(M, i_M, s_M): the product M of primes k..k+size-1, and i and sqrt2 in Z/M.

    i_M and s_M are the CRT lifts of every i_p and s_p, so a + b*i_M +
    (c + d*i_M)*s_M mod M is a ring map from Z[i, sqrt2] to Z/M that
    reduces modulo each p of the group to that prime's map.
    """
    fields = [_field(j) for j in range(k, k + size)]
    modulus = math.prod(p for p, _, _ in fields)
    i_m = s_m = 0
    for p, i_p, s_p in fields:
        rest = modulus // p
        unit = rest * pow(rest, -1, p)  # 1 mod p, 0 mod every other prime
        i_m += i_p * unit
        s_m += s_p * unit
    return modulus, i_m % modulus, s_m % modulus


# --- exact rank --------------------------------------------------------------

# Most primes eliminated at once, modulo their product: the cost of one
# elimination grows with the square of the product's length, so an
# unbounded group loses to several bounded ones on large blocks.
_GROUP = 4


def _degree(entries) -> int:
    """[K : Q] for the smallest of Q, Q(i), Q(sqrt2), Q(i*sqrt2) holding every entry.

    An entry (a, b, c, d) is a + b*i + (c + d*i)*sqrt2: the field is Q when
    every b, c and d is zero, and has degree 2 when only one of b, c, d is
    ever nonzero.
    """
    parts = sum(map(any, list(zip(*entries))[1:]))
    return 1 << min(parts, 2)


def _pivots_mod(rows, p: int) -> list[int]:
    """Pivot columns of residue rows mod p under first-nonzero pivoting.

    ``active`` holds the nonzero rows not yet used as pivots, trimmed to the
    columns not yet eliminated; elimination ends when it runs empty.  For a
    composite p, a pivot that is no unit mod p raises ``ValueError``.
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


def _certified_rank(scaled: _Scaled, table) -> RankResult:
    """Rank and pivots of the matrix ``scaled`` holds at ``table``, by the degree-aware stop rule.

    Entry (i, j) is value ``table[i][j]`` of ``scaled``; its residue rows and
    its row and column sums of e^2 are read through the table.  The first
    prime is eliminated alone; the further primes the rule asks for are
    eliminated in groups of at most ``_GROUP``, once modulo each group's
    product.  A group whose elimination meets a pivot that is no unit modulo
    that product is eliminated again one prime at a time.
    """
    ncols = len(table[0])
    # best[c]: the largest rank of columns 0..c seen modulo any prime so far.
    best = [0] * ncols
    modulus = 1
    bounds = None
    k = 0
    size = 1
    # Primes below this index are eliminated one at a time: a group over them failed.
    single = 0
    while True:
        vec = scaled.vector(k, size)
        group = _ring(k, size)[0]
        rows = [[vec[j] for j in row] for row in table]
        try:
            found = set(_pivots_mod(rows, group))
        except ValueError:
            single, size = k + size, 1
            continue
        k += size
        modulus *= group
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
            squares = scaled.squares()
            bounds = _minor_bounds([sum(squares[j] for j in row) for row in table],
                                   [sum(squares[j] for j in col) for col in zip(*table)])
        target = bounds[missing] ** scaled.degree
        if modulus * modulus > target:
            break
        # The next group: as many primes as the rule still asks for, at most _GROUP.
        size, reach = 0, modulus
        while reach * reach <= target and size < (1 if k < single else _GROUP):
            reach *= _field(k + size)[0]
            size += 1
    pivot_columns = tuple(c for c in range(ncols) if best[c] > (best[c - 1] if c else 0))
    return RankResult(best[-1], pivot_columns)


class _Scaled:
    """Values scaled to Z[i, sqrt2] by the lcm of their denominators, plus one zero slot.

    Slot k holds ``values[k]`` and slot ``len(values)`` holds 0, the entry a
    block takes where the matrix has no value.  ``degree`` is the degree of
    the smallest field holding them all, and ``vector(k, size)`` and
    ``squares()`` are made on first use and kept.
    """

    __slots__ = ("degree", "_entries", "_squares", "_vectors")

    def __init__(self, values: Iterable[Scalar]) -> None:
        coords = [x.coords for x in values]
        # A list, not a generator: a star-argument tuple built from a generator
        # is resized, which strands one tuple in CPython's free lists per call.
        scale = math.lcm(*[x[4] for x in coords])
        entries = []
        for a, b, c, d, den in coords:
            k = scale // den
            entries.append((a * k, b * k, c * k, d * k))
        entries.append((0, 0, 0, 0))
        self._entries = entries
        self.degree = _degree(entries)
        self._squares: list[int] | None = None
        self._vectors: dict[tuple[int, int], list[int]] = {}

    def vector(self, k: int, size: int = 1) -> list[int]:
        """The values' residues modulo the product of primes k..k+size-1."""
        key = (k, size)
        if key not in self._vectors:
            m, i_m, s_m = _ring(k, size)
            self._vectors[key] = [(a + b * i_m + (c + d * i_m) * s_m) % m for a, b, c, d in self._entries]
        return self._vectors[key]

    def squares(self) -> list[int]:
        """e^2 per value, where e = |a| + |b| + 2(|c| + |d|) bounds the modulus of every conjugate."""
        if self._squares is None:
            self._squares = [(abs(a) + abs(b) + 2 * (abs(c) + abs(d))) ** 2 for a, b, c, d in self._entries]
        return self._squares


def state_cuts(state: PureState, sigmas) -> Iterator[CoeffMatrix]:
    """``coefficient_matrix(state, sigma)`` for each sigma, in order, all sharing one scaling of the state."""
    scaled = _Scaled(state.amps.values())
    for sigma in sigmas:
        cut = coefficient_matrix(state, sigma)
        cut._scaled = scaled
        yield cut


def exact_rank(matrix) -> RankResult:
    """Rank over Q(i, sqrt2) and the echelon pivot columns, certified exact.

    The pivot columns are those that raise the rank of the columns before
    them, as first-nonzero elimination finds them.  No threshold is involved.
    ``matrix`` is a :class:`CoeffMatrix`, whose amplitudes are read from
    its state's shared scaling (``state_cuts``) or a scaling of their own,
    or a grid, whose nonzero entries are scaled together; a grid whose rows
    differ in length is a ``ShapeError``.  Either way only the block of
    nonzero rows and nonzero columns is eliminated.
    """
    if isinstance(matrix, CoeffMatrix):
        scaled = matrix._scaled or _Scaled(matrix.values.values())
        positions, width = matrix.positions(), matrix.cols
    else:
        grid = _grid(matrix)
        width = len(grid[0]) if grid else 0
        if any(len(row) != width for row in grid):
            raise ShapeError(f"rows of a matrix must have one length, got {sorted({len(row) for row in grid})}")
        flat = [x for row in grid for x in row]
        positions = [k for k, x in enumerate(flat) if x]
        scaled = _Scaled([flat[k] for k in positions])
    if not positions:
        return RankResult(0, ())
    # The block: the sorted nonzero rows and columns, and in each of its
    # cells the slot of the value there, or the zero slot.
    slot = dict(zip(positions, range(len(positions)))).get
    zero = len(positions)
    rows = sorted({position // width for position in positions})
    cols = sorted({position % width for position in positions})
    table = [[slot(r * width + c, zero) for c in cols] for r in rows]
    result = _certified_rank(scaled, table)
    return RankResult(result.rank, tuple(cols[c] for c in result.pivot_columns))


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
    """Complex-double image of a scalar matrix.

    Raises NumericFailure when an entry has no finite complex-double image.
    """
    import numpy as np

    grid = _grid(matrix)
    try:
        rows = [[complex(entry) for entry in row] for row in grid]
    except OverflowError as exc:
        raise NumericFailure(f"an entry is beyond double range: {exc}") from exc
    # Not np.isfinite or cmath: the ufunc raised the peak RSS of `rank --numeric` by
    # 0.27 MB, and importing cmath that of every process by about 0.15 MB.
    if not all(math.isfinite(z.real) and math.isfinite(z.imag) for row in rows for z in row):
        raise NumericFailure("an entry is beyond double range: its image is not finite")
    return np.array(rows, dtype=complex)


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
