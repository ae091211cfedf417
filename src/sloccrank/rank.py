"""Exact rank and determinant of scalar matrices, plus a floating cross-check.

``exact_rank`` is a multi-prime modular engine whose answer is proven exact.
It ranks a matrix from its block of nonzero rows and nonzero columns:
deleting zero rows and zero columns changes neither the rank nor which
nonzero columns are pivots, and the block's pivots map back through the
sorted column list.  The block is laid out once, as one row-major list of
slots, slot k holding the k-th value and one more slot holding 0, the
entry of every empty cell.  A ``CoeffMatrix`` lays out its own block
(``CoeffMatrix.block``) and is never laid out as scalars here: when every
one of its 2^n indices holds an amplitude, the block is the whole matrix,
whose slots are the relabeled indices themselves (a state keeps its
amplitudes in index order); otherwise it comes from the O(terms)
positions of the amplitudes.  A raw grid's block comes from the
positions of its nonzero entries.  The values are scaled by the lcm of
their denominators, so every value lies in Z[i, sqrt2], the integers of
Q(zeta_8); scaling by a nonzero integer changes no rank and no pivot.  The
values are reduced once per prime to a residue vector, or to one byte
string per value for the lanes below, made on first use; the cuts from
``state_cuts`` share one scaling, hence one such set per prime, for their
whole state.  Per prime, one gather through the slot list
(``operator.itemgetter``) reads the block's residues, or their bytes, as
one flat tuple, which slices cut into rows; the squares behind the stop
rule's row and column sums are read the same way.  The block is then
eliminated over F_p for primes p = 1 (mod 8) below 2^81,
where i -> w^2 and sqrt2 -> w + 1/w for a primitive 8th root of unity w mod
p.  An elimination costs about as much at 81 bits as at 62 (a residue is
three 30-bit digits either way), and 81 bits is as wide as 13-base
Miller-Rabin proves a prime, so each prime certifies as many bits as that
proof allows.  A rank mod p never exceeds the true rank, so for every
column prefix the engine keeps the largest rank any prime has shown.

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

Elimination.  Each row in turn is reduced against the basis rows, in the
order they were found: it loses f times basis row b, f being its entry at
b's lead over b's.  A row that is then 0 is dropped; otherwise it joins the
basis, its lowest nonzero column as its lead.  Once the basis is as large
as the block is wide, it spans every row, and no more rows are read.  A
basis row is zero left of its lead and at every earlier lead, so each
subtraction keeps the row zero at the leads cleared before: a reduced row
is zero at every lead, and the leads are distinct.  Sorted by lead, the
basis is an echelon basis of the row space; its rows with lead at most c
stay independent on columns 0..c, and the others vanish there.  So the rank
of columns 0..c is the number of leads up to c, and the leads are the
columns that raise the rank of the columns before them: the pivots of
Gaussian elimination with first-nonzero pivoting.  The rows that joined are
those independent of the rows before them, and their minor on the leads is
nonzero mod p.  ``_pivots_mod`` runs this on residue lists, and
``_pivots_lanes`` on packed rows.

Lanes.  ``_pivots_lanes`` packs each row into one int: column j's residue
mod p in lane j, the ``width`` bytes from bit 8*width*j, column 0 lowest.
A basis row is kept as its lead's shift, the inverse of its lead mod p and
its negation (p - b in each lane); reducing a row against it is one lane
read, one multiply by that inverse mod p, and one multiply-add of the
factor times the negation, with no reduction in between.  A lane x then
holds less than (count+1)*p^2 < 2^(2L+e), where count is the number of
lanes (a bound on the basis size), L = p.bit_length() and e =
(count+1).bit_length().  All lanes are then reduced at once, by a Barrett
step on each lane's high part: t = x >> (L-2), below 2^(L+e+2), and q =
floor(t*mu / 2^(L+e+3)) with mu = floor(2^(2L+e+1)/p).  Dropping the low
L-2 bits of x costs the quotient less than 2^(L-2)/p <= 1/2, and truncating
mu less than t/2^(L+e+3) < 1/2, so q is floor(x/p) or one less and x - q*p
lies in [0, 2p).  The products t*mu stay below 2^(2L+2e+4), the lane width
in bits, rounded up to whole bytes (16 lanes of 81-bit residues fill 22
bytes exactly).  After each shift the next lane's bits start at or above
the mask taken, L+e+2 bits for t and L+e+1 for q, so no lane spills into
the next and the subtraction of q*p borrows across none.  One packed
conditional subtraction, testing bit L+1 of x + 2^(L+1) - p, leaves every
lane in [0, p).

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
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import accumulate
from operator import itemgetter

from .coeffmatrix import CoeffMatrix, block_slots, coefficient_matrix
from .scalar import ONE, ZERO, Scalar, as_scalar, scaled_coords
from .states import PureState

# typing.TYPE_CHECKING without importing typing; type checkers take the name as true.
TYPE_CHECKING = False
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


RankResult = namedtuple("RankResult", ["rank", "pivot_columns"])


class ShapeError(ValueError):
    """Operation requires a differently shaped matrix (e.g. square)."""


class NumericFailure(RuntimeError):
    """The floating-point image failed: an entry beyond double range, or no SVD."""


def _grid(matrix) -> list[list[Scalar]]:
    if isinstance(matrix, CoeffMatrix):
        return [list(row) for row in matrix.entries]
    return [[as_scalar(x) for x in row] for row in matrix]


# --- prime fields ------------------------------------------------------------

_PRIME_LIMIT = 1 << 81
# Miller-Rabin with the first 13 primes as bases is deterministic below
# psi_13 = 3.317e24, beyond 2^81 (Sorenson and Webster, Math. Comp. 86, 2017);
# the first 12 alone only below psi_12 = 3.187e23, about 2^78.1.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
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
    """The k-th prime field below 2^81 that holds i and sqrt2; the first is p = 2^81 - 63."""
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

# Blocks this wide or wider are eliminated as packed lanes, narrower ones as
# residue lists.  Lanes / lists per elimination at the first 81-bit prime,
# packing included, min of 15 x 2000 calls on square blocks, the kernels
# interleaved, two runs on a shared 2-core Xeon under Python 3.11.7
# (columns/rank: run 1, run 2):
#   2/1 1.18 1.30  2/2 1.08 1.14  3/1 1.09 1.14  3/3 1.06 1.06  4/1 1.10 1.21
#   4/2 0.98 1.04  4/4 0.92 1.00  5/1 1.16 1.10  5/2 0.84 0.87  5/5 0.87 0.84
#   6/1 1.02 1.03  6/3 0.72 0.76  6/6 0.80 0.80  7/1 1.02 0.97  7/3 0.76 0.70
#   7/7 0.70 0.72  8/1 1.01 0.99  8/4 0.63 0.59  8/8 0.73 0.70
# Lanes lose on 2 and 3 columns and on rank-one blocks up to 6, and are even
# or ahead from 7 columns at every rank; the blocks of dense state cuts are
# 2^k columns wide.
_LANES_MIN = 8


def _degree(entries) -> int:
    """[K : Q] for the smallest of Q, Q(i), Q(sqrt2), Q(i*sqrt2) holding every entry.

    An entry (a, b, c, d) is a + b*i + (c + d*i)*sqrt2: the field is Q when
    every b, c and d is zero, and has degree 2 when only one of b, c, d is
    ever nonzero.
    """
    parts = sum(map(any, list(zip(*entries))[1:]))
    return 1 << min(parts, 2)


def _pivots_mod(rows, p: int) -> list[int]:
    """Pivot columns of residue rows mod p: the module docstring's elimination, on lists."""
    basis: list[tuple[int, int, list[int]]] = []  # (lead column, lead's inverse mod p, row)
    for row in rows:
        for lead, inv, b in basis:
            f = row[lead] * inv % p
            if f:
                row = [(x - f * y) % p for x, y in zip(row, b)]
        for lead, x in enumerate(row):
            if x:
                basis.append((lead, pow(x, -1, p), row))
                break
        if len(basis) == len(row):
            break
    return sorted(lead for lead, _, _ in basis)


@functools.lru_cache(maxsize=256)
def _lanes(m: int, count: int) -> tuple[int, int, int, int, int, int, int, int, int]:
    """(width, low, tmask, mu, s, qmask, g, add, ones): constants for ``count`` lanes of residues mod m.

    With L = m.bit_length() and e = (count+1).bit_length(), a lane is
    2L+2e+4 bits rounded up to ``width`` whole bytes; low = L-2, mu =
    floor(2^(2L+e+1)/m) and s = L+e+3.  ``ones`` has a 1 at the bottom of
    every lane, ``tmask`` the low L+e+2 bits of every lane, ``qmask`` the low
    L+e+1 bits, and ``add`` holds 2^g - m in every lane, g = L+1.
    """
    size = m.bit_length()
    e = (count + 1).bit_length()
    width = -(-(2 * size + 2 * e + 4) // 8)
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * count, "little")
    g = size + 1
    tmask = ones * ((1 << size + e + 2) - 1)
    qmask = ones * ((1 << size + e + 1) - 1)
    return width, size - 2, tmask, (1 << 2 * size + e + 1) // m, size + e + 3, qmask, g, ones * ((1 << g) - m), ones


def _reduce_lanes(x: int, m: int, lanes) -> int:
    """``x`` with every lane of ``lanes = _lanes(m, count)`` reduced to [0, m); each must be below (count+1)*m^2.

    The Barrett step on each lane's high part leaves each lane in [0, 2m);
    the conditional subtraction takes m from the lanes whose bit g of lane +
    2^g - m is set.
    """
    _, low, tmask, mu, s, qmask, g, add, ones = lanes
    x -= ((x >> low & tmask) * mu >> s & qmask) * m
    return x - (x + add >> g & ones) * m


def _pivots_lanes(rows: list[int], m: int, count: int) -> list[int]:
    """Pivot columns of rows packed as ``count`` lanes of residues mod m: the module docstring's elimination."""
    lanes = _lanes(m, count)
    bits = 8 * lanes[0]
    lane = (1 << bits) - 1
    negate = lanes[-1] * m
    basis: list[tuple[int, int, int]] = []  # (lead's shift, lead's inverse mod m, negated row)
    for x in rows:
        for shift, inv, neg in basis:
            x += (x >> shift & lane) * inv % m * neg
        x = _reduce_lanes(x, m, lanes)
        if x:
            shift = ((x & -x).bit_length() - 1) // bits * bits
            basis.append((shift, pow(x >> shift & lane, -1, m), negate - x))
            if len(basis) == count:
                break
    return sorted(shift // bits for shift, _, _ in basis)


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


def _gather(slots: list[int]):
    """A function taking a sequence to the tuple of its items at ``slots``."""
    if len(slots) == 1:
        (slot,) = slots
        return lambda values: (values[slot],)
    return itemgetter(*slots)


def _packed(cells: tuple[bytes, ...], step: int) -> list[int]:
    """Row-major lane bytes cut into rows of ``step`` bytes, each read as one little-endian int.

    The joined bytes, 1.4 MB for a 256 x 256 block, are freed on return,
    not held while the next prime's lane bytes are made.
    """
    blob = b"".join(cells)
    return [int.from_bytes(blob[i:i + step], "little") for i in range(0, len(blob), step)]


def _certified_rank(scaled: _Scaled, slots: list[int], ncols: int) -> RankResult:
    """Rank and pivots of the matrix, ``ncols`` wide, that ``scaled`` holds at ``slots``, by the degree-aware stop rule.

    Entry (i, j) is value ``slots[i * ncols + j]`` of ``scaled``.  Each
    prime's residues, as a flat tuple, are gathered through the slots in one
    call and cut into rows by slices, as are the e^2 sums' squares.  The
    primes are eliminated one at a time, by one elimination on packed rows
    (``_pivots_lanes``) from ``_LANES_MIN`` columns and on residue rows
    (``_pivots_mod``) below.
    """
    gather = _gather(slots)
    size = len(slots)
    nrows = size // ncols
    # best[c]: the largest rank of columns 0..c seen modulo any prime so far.
    best = [0] * ncols
    modulus = 1
    bounds = None
    k = 0
    while True:
        p = _field(k)[0]
        if ncols < _LANES_MIN:
            cells = gather(scaled.vector(k))
            leads = _pivots_mod([cells[i:i + ncols] for i in range(0, size, ncols)], p)
        else:
            width = _lanes(p, ncols)[0]
            leads = _pivots_lanes(_packed(gather(scaled.lane_bytes(k, width)), ncols * width), p, ncols)
        k += 1
        modulus *= p
        raised = [0] * ncols
        for lead in leads:
            raised[lead] = 1
        best = list(map(max, best, accumulate(raised)))
        # Columns 0..c hold rank at most min(c+1, nrows); below that, a minor
        # of size best[c]+1 may have vanished modulo every prime so far.
        missing = max([b + 1 for c, b in enumerate(best, 1) if b < c and b < nrows], default=0)
        if not missing:
            break
        if bounds is None:
            squares = gather(scaled.squares())
            bounds = _minor_bounds([sum(squares[i:i + ncols]) for i in range(0, size, ncols)],
                                   [sum(squares[c::ncols]) for c in range(ncols)])
        if modulus * modulus > bounds[missing] ** scaled.degree:
            break
    pivot_columns = tuple(c for c in range(ncols) if best[c] > (best[c - 1] if c else 0))
    return RankResult(best[-1], pivot_columns)


class _Scaled:
    """Values scaled to Z[i, sqrt2] by the lcm of their denominators, plus one zero slot.

    Slot k holds ``values[k]`` and slot ``len(values)`` holds 0, the entry a
    block takes where the matrix has no value.  ``degree`` is the degree of
    the smallest field holding them all; ``vector(k)``, ``lane_bytes(k,
    width)`` and ``squares()`` are made on first use and kept.
    """

    __slots__ = ("degree", "_entries", "_squares", "_vectors", "_bytes")

    def __init__(self, values: Iterable[Scalar]) -> None:
        _, entries = scaled_coords(values)
        entries.append((0, 0, 0, 0))
        self._entries = entries
        self.degree = _degree(entries)
        self._squares: list[int] | None = None
        self._vectors: dict[int, list[int]] = {}
        self._bytes: dict[tuple[int, int], list[bytes]] = {}

    def _residues(self, k: int) -> list[int]:
        p, i_p, s_p = _field(k)
        return [(a + b * i_p + (c + d * i_p) * s_p) % p for a, b, c, d in self._entries]

    def vector(self, k: int) -> list[int]:
        """The values' residues modulo prime k."""
        if k not in self._vectors:
            self._vectors[k] = self._residues(k)
        return self._vectors[k]

    def lane_bytes(self, k: int, width: int) -> list[bytes]:
        """The values' residues modulo prime k as ``width``-byte little-endian lanes.

        Made from ``vector(k)`` if that is kept, and otherwise without keeping
        it: a state whose cuts are all wide needs only the bytes.
        """
        key = (k, width)
        if key not in self._bytes:
            residues = self._vectors[k] if k in self._vectors else self._residues(k)
            self._bytes[key] = [x.to_bytes(width, "little") for x in residues]
        return self._bytes[key]

    def squares(self) -> list[int]:
        """e^2 per value, where e = |a| + |b| + 2(|c| + |d|) bounds the modulus of every conjugate."""
        if self._squares is None:
            self._squares = [(abs(a) + abs(b) + 2 * (abs(c) + abs(d))) ** 2 for a, b, c, d in self._entries]
        return self._squares


def state_cuts(state: PureState, sigmas) -> Iterator[CoeffMatrix]:
    """``coefficient_matrix(state, sigma)`` for each sigma, in order, all sharing one scaling."""
    scaled = _Scaled(state.amps.values())
    for sigma in sigmas:
        cut = coefficient_matrix(state, sigma)
        cut._scaled = scaled
        yield cut


def exact_rank(matrix) -> RankResult:
    """Rank over Q(i, sqrt2) and the echelon pivot columns, certified exact.

    The pivot columns are those that raise the rank of the columns before
    them: the leads of the module docstring's elimination, which are the
    pivots of first-nonzero elimination.  No threshold is involved.
    ``matrix`` is a :class:`CoeffMatrix`, whose amplitudes are read from
    its state's shared scaling (``state_cuts``) or a scaling of their own,
    or a grid, whose nonzero entries are scaled together; a grid whose rows
    differ in length is a ``ShapeError``.  Either way only the block of
    nonzero rows and nonzero columns is eliminated.
    """
    if isinstance(matrix, CoeffMatrix):
        scaled = matrix._scaled or _Scaled(matrix.values.values())
        slots, cols = matrix.block()
    else:
        grid = _grid(matrix)
        width = len(grid[0]) if grid else 0
        if any(len(row) != width for row in grid):
            raise ShapeError(f"rows of a matrix must have one length, got {sorted({len(row) for row in grid})}")
        flat = [x for row in grid for x in row]
        positions = [k for k, x in enumerate(flat) if x]
        scaled = _Scaled([flat[k] for k in positions])
        slots, cols = block_slots(positions, width)
    if not slots:
        return RankResult(0, ())
    result = _certified_rank(scaled, slots, len(cols))
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
