"""Exact rank and determinant of scalar matrices, plus a floating cross-check.

``exact_rank`` is a multi-prime modular engine whose answer is proven exact.
It ranks a matrix from its block of nonzero rows and nonzero columns:
deleting zero rows and zero columns changes neither the rank nor which
nonzero columns are pivots, and the block's pivots map back through the
sorted column list.  The block is laid out once, as one row-major list of
slots, slot k holding the k-th value and one more slot holding 0, the
entry of every empty cell.  A ``CoeffMatrix`` lays out its own block
(``CoeffMatrix.block``) and is never laid out as scalars for its rank:
when every one of its 2^n indices holds an amplitude, the block is the
whole matrix, whose slots are the relabeled indices themselves (a state
keeps its amplitudes in index order); otherwise it comes from the
O(terms) positions of the amplitudes.  A raw grid's block comes from the
positions of its nonzero entries (``_block``).  The values are scaled by
the lcm of their denominators, so every value lies in Z[i, sqrt2]; scaling
by a nonzero integer changes no rank and no pivot.  (Z[i, sqrt2] is not the
ring of integers of Q(zeta_8): it has index 2 in Z[zeta_8], since zeta_8 =
(1+i)*sqrt2/2 has half-integer coordinates.)  The values are reduced once
per prime, on first use, to one byte string per value: its residue as one
lane of the packed rows below.  A state keeps its scaling (``_scaling``),
so its cuts share one such set per prime and lane width.  Per prime, one
gather through the slot list (``operator.itemgetter``) reads the block's
lane bytes as one flat tuple, which is joined and cut into rows; the
squares behind the stop rule's row and column sums are gathered the same
way.  The block is then eliminated over F_p for primes p = 1 (mod 8),
where i -> w^2 and sqrt2 -> w + 1/w for a primitive 8th root of unity w
mod p.  A rank mod p never exceeds the true rank, so for every column
prefix the engine keeps the largest rank any prime has shown, as the
smallest k-th lead of any prime for each k: a prefix's rank is the number
of those inside it.

Prime sizes.  Primes come in two sizes, each searched by ``_field`` and
kept in its own list.  A one-digit prime lies below 2^bits_per_digit
(2^30 on 64-bit CPython), so each residue is one digit of a Python int.
An 81-bit prime is as wide as 13-base Miller-Rabin proves a prime, and an
elimination costs about as much at 81 bits as at 62 (a residue is three
30-bit digits either way).  A one-digit elimination costs a third to two
fifths as much: ``_pivots_lanes`` on 16 x 16 residues took 64 against
192 us at full rank and 27 against 69 us at rank 3 (Python 3.11, a
2-core Xeon).  Per certified bit that is 0.91 against 0.85 us, and packing
a block's rows adds about 11 us per prime at either size, so an 81-bit
prime certifies bits a little more cheaply, while a one-digit prime finds
a rank at a third of the cost.

Prime plan.  The first elimination of every block is modulo the largest
one-digit prime.  It finds the rank, and it alone closes a block whose
rank needs no bound (full column rank, or full row rank with no column
skipped).  While the stop rule below is not met, each further prime is
the next 81-bit one, unless one more one-digit prime would close it; then
it is the next one-digit prime.  The two lists share no prime, so M below
is a product of distinct primes = 1 (mod 8), whichever sizes it took.

Stop rule.  Let d in {1, 2, 4} be the degree of the smallest of Q, Q(i),
Q(sqrt2), Q(i*sqrt2) holding every entry.  Columns 0..c hold rank at most
min(c+1, rows); below that cap, a minor one larger than their rank may
still be missing.  Prefix ranks rise with c, so the largest such size,
``missing``, is the rank plus 1 while the rank is below both counts, the
rank when it equals the row count and a column before the last lead
raised no rank, and none otherwise.  P bounds |s(m)|^2 for every conjugate
s(m) of every such minor m: by Hadamard, the product of the ``missing``
largest sums of e^2 (e = ``coord_bound`` of an entry) along the block's
rows, or along its columns if smaller.  Each sum counts as at least 1, so
P also bounds the smaller minors missing at lower prefixes.  Primes are
added, by the plan above, until their product M satisfies M^2 > P^d.
Proof: each p = 1 (mod 8) splits completely, so a minor m that vanishes
mod p lies in a prime of norm p and p divides N_{K/Q}(m); M then divides
that norm, which is at most P^(d/2) < M, so m = 0.  Every prefix rank,
hence the rank and the pivot columns, is exact.  No tolerance is involved.
The rule holds on the block as it does on the whole matrix: a zero row or
column would enter the bound with the factor 1, and the cap min(c+1, rows)
on the rank of columns 0..c only tightens when the rows counted are the
nonzero ones.

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
nonzero mod p.  ``_pivots_lanes`` runs this on every block, one column
wide or more, its rows packed as below.

Lanes.  ``_pivots_lanes`` packs each row into one int: column j's residue
mod p in lane j, the ``width`` bytes from bit 8*width*j, column 0 lowest.
A basis row is kept as its lead's shift, the mask ``below`` of the bits up
to its lead lane's top, the inverse of its lead mod p and its negation
(p - b in each lane).  The row that fills the basis and the
block's last row are read by no later row, so they keep only their lead
and take no inverse.  Reducing a row against a basis row is one lane
read, one multiply by that inverse mod p, and one multiply-add of the
factor times the negation, with no reduction in between.  The lane is read
from the row's low end, (x & below) >> shift (no lane is ever negative),
so a lead in lane j costs O(j) digits, not a shift of the whole row.  A lane x then
holds less than (count+1)*p^2 < 2^(2L+e), where count is the number of
lanes (a bound on the basis size), L = p.bit_length() and e =
(count+1).bit_length().  All lanes are then reduced at once, by a Barrett
step on each lane's high part: t = x >> (L-2), below 2^(L+e+2), and q =
floor(t*mu / 2^(L+e+3)) with mu = floor(2^(2L+e+1)/p).  Dropping the low
L-2 bits of x costs the quotient less than 2^(L-2)/p <= 1/2, and truncating
mu less than t/2^(L+e+3) < 1/2, so q is floor(x/p) or one less and x - q*p
lies in [0, 2p).  The products t*mu stay below 2^(2L+2e+4), the lane width
in bits, rounded up to whole bytes (16 lanes of 81-bit residues fill 22
bytes exactly; 16 of one-digit residues take 10).  After each shift the
next lane's bits start at or above the mask taken, L+e+2 bits for t and
L+e+1 for q, so no lane spills into the next and the subtraction of q*p
borrows across none.  One packed conditional subtraction, testing bit L+1
of x + 2^(L+1) - p, leaves every lane in [0, p).

``exact_det`` reads the same block: with fewer than n rows or columns it
has determinant 0, and otherwise it is the whole matrix, whose scaled
values fraction-free (Bareiss) elimination runs on; the result is divided
by den^n at the end; the determinant of a state's identity cut is kept on
the state.  Each step divides its new entries by the previous step's
pivot q.  The division is exact: by Sylvester's identity every
entry after step k is a (k+1) x (k+1) minor of the scaled matrix, so it
lies in Z[i, sqrt2].  It is done on ints, with no inverse:
``scalar._other_conjugates``, which ``Scalar.inverse`` also reads, gives
c, the product of q's other conjugates, and the positive int N = q * c,
and x / q = (x * c) / N, each coordinate of x * c divided exactly by N.

Every function here takes a ``CoeffMatrix`` or a grid of ints, Fractions
or scalars.  A grid entry of any other type is a ``TypeError``, and a grid
whose rows differ in length is a ``ShapeError``, in every function.  The
numeric rank goes through an SVD of the complex-double image of the
matrix and acts as an independent oracle for the exact path.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from collections import namedtuple
from collections.abc import Iterable, Sequence
from operator import itemgetter

from .coeffmatrix import CoeffMatrix, block_slots
from .scalar import ONE, ZERO, Scalar, _make, _other_conjugates, as_scalar, coord_bound, mix, scaled_coords
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
    """``matrix`` as rows of scalars; rows that differ in length are a ``ShapeError``."""
    if isinstance(matrix, CoeffMatrix):
        return [list(row) for row in matrix.entries]
    grid = [[as_scalar(x) for x in row] for row in matrix]
    lengths = {len(row) for row in grid}
    if len(lengths) > 1:
        raise ShapeError(f"rows of a matrix must have one length, got {sorted(lengths)}")
    return grid


# --- prime fields ------------------------------------------------------------

# A residue below 2^bits_per_digit is one digit of a Python int (2^30 on
# 64-bit CPython), so an elimination modulo such a prime costs a third to
# two fifths of one modulo an 81-bit prime (the module docstring).
_DIGIT_LIMIT = 1 << sys.int_info.bits_per_digit
_PRIME_LIMIT = 1 << 81
# Miller-Rabin with the first 13 primes as bases is deterministic below
# psi_13 = 3.317e24, beyond 2^81 (Sorenson and Webster, Math. Comp. 86, 2017);
# the first 12 alone only below psi_12 = 3.187e23, about 2^78.1.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Per limit, (p, i_p, s_p) with p = 1 (mod 8) below it, i_p^2 = -1 and
# s_p^2 = 2 (mod p), largest p first; found on first use and kept for the
# life of the process.  Each list only grows, under the one lock, so no prime
# can enter it twice, and the two lists share none.
_fields: dict[int, list[tuple[int, int, int]]] = {_DIGIT_LIMIT: [], _PRIME_LIMIT: []}
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


def _field(k: int, limit: int = _PRIME_LIMIT) -> tuple[int, int, int]:
    """The k-th prime field below ``limit`` (2^81 or 2^bits_per_digit) that holds i and sqrt2.

    The first below 2^81 is p = 2^81 - 63, and the first below 2^30 is p = 2^30 - 135.
    """
    fields = _fields[limit]
    if k < len(fields):
        return fields[k]
    with _fields_lock:
        while len(fields) <= k:
            p = fields[-1][0] - 8 if fields else limit - 7
            while not _is_prime(p):
                p -= 8
            g = 2
            while pow(g, (p - 1) // 2, p) != p - 1:
                g += 1
            # g is a non-residue, so w^4 = g^((p-1)/2) = -1: w has order 8.
            w = pow(g, (p - 1) // 8, p)
            fields.append((p, w * w % p, (w + pow(w, 7, p)) % p))
    return fields[k]


# --- exact rank --------------------------------------------------------------

def _degree(entries) -> int:
    """[K : Q] for the smallest of Q, Q(i), Q(sqrt2), Q(i*sqrt2) holding every entry.

    An entry (a, b, c, d) is a + b*i + (c + d*i)*sqrt2: the field is Q when
    every b, c and d is zero, and has degree 2 when only one of b, c, d is
    ever nonzero.
    """
    parts = sum(map(any, list(zip(*entries))[1:]))
    return 1 << min(parts, 2)


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
    negate = lanes[-1] * m
    basis: list[tuple[int, int, int, int]] = []  # (lead's shift, below, lead's inverse mod m, negated row)
    leads = []
    last = len(rows) - 1
    for r, x in enumerate(rows):
        for shift, below, inv, neg in basis:
            x += ((x & below) >> shift) * inv % m * neg
        x = _reduce_lanes(x, m, lanes)
        if x:
            shift = ((x & -x).bit_length() - 1) // bits * bits
            leads.append(shift // bits)
            if len(leads) == count or r == last:  # no later row is reduced against this one
                break
            below = (1 << shift + bits) - 1
            basis.append((shift, below, pow((x & below) >> shift, -1, m), negate - x))
    return sorted(leads)


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
    prime's lane bytes, as a flat tuple, are gathered through the slots in
    one call and joined into packed rows, and eliminated by
    ``_pivots_lanes``, whatever the block's width.  ``best[k]``, the
    smallest (k+1)-th lead any prime has shown, is lowered in place by each
    prime's sorted leads; it holds the pivots, and its entries up to c count
    the rank of columns 0..c.  The e^2 sums are sorted once per block, and
    each check multiplies only the ``missing`` largest.  The primes follow
    the module docstring's plan: ``taken[limit]`` counts those of each size.
    """
    gather = _gather(slots)
    size = len(slots)
    nrows = size // ncols
    best: list[int] = []
    modulus = 1
    row_sums = col_sums = None
    taken = {_DIGIT_LIMIT: 0, _PRIME_LIMIT: 0}
    limit = _DIGIT_LIMIT
    while True:
        field = _field(taken[limit], limit)
        taken[limit] += 1
        p = field[0]
        width = _lanes(p, ncols)[0]
        leads = _pivots_lanes(_packed(gather(scaled.lane_bytes(field, width)), ncols * width), p, ncols)
        modulus *= p
        if len(leads) > len(best):
            best, leads = leads, best
        best[:len(leads)] = map(min, best, leads)
        rank = len(best)
        # Every prefix is at its cap min(c+1, nrows) only if the rank is
        # ncols, or nrows with no column skipped before the last lead.
        if rank == ncols or rank == nrows and best[-1] == rank - 1:
            break
        missing = rank + 1 if rank < nrows else rank
        if row_sums is None:
            squares = gather(scaled.squares())
            # A row or column of a nonzero minor has a sum of at least 1.
            row_sums = sorted([sum(squares[i:i + ncols]) or 1 for i in range(0, size, ncols)], reverse=True)
            col_sums = sorted([sum(squares[c::ncols]) or 1 for c in range(ncols)], reverse=True)
        bound = min(math.prod(row_sums[:missing]), math.prod(col_sums[:missing])) ** scaled.degree
        if modulus * modulus > bound:
            break
        top_up = modulus * _field(taken[_DIGIT_LIMIT], _DIGIT_LIMIT)[0]
        limit = _DIGIT_LIMIT if top_up * top_up > bound else _PRIME_LIMIT
    return RankResult(rank, tuple(best))


class _Scaled:
    """Values times ``den``, the lcm of their denominators, as ``coords`` in Z[i, sqrt2], plus one zero slot.

    Slot k holds ``values[k]`` and slot ``len(values)`` holds 0, the entry a
    block takes where the matrix has no value.  ``degree`` is the degree of
    the smallest field holding them all; ``lane_bytes(field, width)`` and
    ``squares()`` are made on first use and kept.
    """

    __slots__ = ("den", "coords", "degree", "_squares", "_bytes")

    def __init__(self, values: Iterable[Scalar]) -> None:
        self.den, coords = scaled_coords(values)
        coords.append((0, 0, 0, 0))
        self.coords = coords
        self.degree = _degree(coords)
        self._squares: list[int] | None = None
        self._bytes: dict[tuple[int, int], list[bytes]] = {}

    def lane_bytes(self, field: tuple[int, int, int], width: int) -> list[bytes]:
        """The values' residues in ``field`` = (p, i_p, s_p), as ``width``-byte little-endian lanes, kept per (p, width)."""
        p, i_p, s_p = field
        key = (p, width)
        if key not in self._bytes:
            self._bytes[key] = [((a + b * i_p + (c + d * i_p) * s_p) % p).to_bytes(width, "little")
                                for a, b, c, d in self.coords]
        return self._bytes[key]

    def squares(self) -> list[int]:
        """e^2 per value, where e = ``coord_bound`` of the value bounds the modulus of every conjugate."""
        if self._squares is None:
            self._squares = [coord_bound(x) ** 2 for x in self.coords]
        return self._squares


def _scaling(state: PureState) -> _Scaled:
    """The scaling of ``state``'s amplitudes, in the order of ``state.amps``: made on first use, kept on the state."""
    if state._scaled is None:
        state._scaled = _Scaled(state.amps.values())
    return state._scaled


def _block(matrix) -> tuple[_Scaled, list[int], Sequence[int], int, int]:
    """(scaled, slots, cols, rows, width): the block of the module docstring, and the matrix's shape.

    A cut's slots index its state's kept scaling; a grid's nonzero entries are scaled together.
    """
    if isinstance(matrix, CoeffMatrix):
        slots, cols = matrix.block()
        return _scaling(matrix.state), slots, cols, matrix.rows, matrix.cols
    grid = _grid(matrix)
    width = len(grid[0]) if grid else 0
    flat = [x for row in grid for x in row]
    positions = [k for k, x in enumerate(flat) if x]
    slots, cols = block_slots(positions, width)
    return _Scaled([flat[k] for k in positions]), slots, cols, len(grid), width


def exact_rank(matrix) -> RankResult:
    """Rank over Q(i, sqrt2) and the echelon pivot columns, certified exact.

    The pivot columns are those that raise the rank of the columns before
    them: the leads of the module docstring's elimination, which are the
    pivots of first-nonzero elimination.  No threshold is involved.
    Only the block of nonzero rows and nonzero columns (``_block``) is
    eliminated.
    """
    scaled, slots, cols, _, _ = _block(matrix)
    if not slots:
        return RankResult(0, ())
    result = _certified_rank(scaled, slots, len(cols))
    return RankResult(result.rank, tuple(cols[c] for c in result.pivot_columns))


_ZERO4 = (0, 0, 0, 0)
_ONE4 = (1, 0, 0, 0)


def exact_det(matrix) -> Scalar:
    """Exact determinant by fraction-free (Bareiss) elimination on integer coordinates.

    The matrix is read through ``_block``, as ``exact_rank`` reads it, and
    eliminated by ``_bareiss``.  The determinant of a state's identity cut
    is kept on the state (``PureState._det``): taken on its first use and
    read on every later one.
    """
    if isinstance(matrix, CoeffMatrix) and matrix.sigma.is_identity:
        state = matrix.state
        if state._det is None:
            state._det = _bareiss(matrix)
        return state._det
    return _bareiss(matrix)


def _bareiss(matrix) -> Scalar:
    """The determinant of ``matrix``, read through ``_block``, by the module docstring's Bareiss elimination.

    Step k takes the first row with a nonzero entry in column k as its pivot
    row (a swap flips the sign), and the determinant is 0 when there is none.
    Each entry below it becomes (pivot * a_ij - a_ik * a_kj) / q, q the
    previous step's pivot, divided exactly as the module docstring says:
    the product by c, q's other conjugates, is taken once per step, on the
    pivot row, so each entry costs one ``mix`` and, unless N = 1, four int
    divisions.  The last entry, over den^n, is the determinant.
    """
    scaling, slots, _, n, width = _block(matrix)
    if n != width:
        raise ShapeError(f"determinant needs a square matrix, got {n}x{width}")
    if n == 0:
        return ONE
    if len(slots) < n * n:
        return ZERO
    den, coords = scaling.den, scaling.coords
    grid = [[coords[k] for k in slots[i:i + n]] for i in range(0, n * n, n)]
    sign = 1
    conj, norm = _ONE4, 1  # the previous pivot's other conjugates and its norm
    for _ in range(n - 1):
        # At step k, grid holds rows k..n-1 of the matrix, on columns k..n-1.
        for i, row in enumerate(grid):
            if row[0] != _ZERO4:
                break
        else:
            return ZERO
        if i:
            grid[0], grid[i] = grid[i], grid[0]
            sign = -sign
        pivot, *lead = grid[0]
        scaled = pivot
        if conj != _ONE4:
            scaled = mix(pivot, conj, _ZERO4, _ZERO4)
            lead = [mix(y, conj, _ZERO4, _ZERO4) for y in lead]
        rows = []
        for (a, b, c, d), *row in grid[1:]:
            head = (-a, -b, -c, -d)
            row = [mix(scaled, x, head, y) for x, y in zip(row, lead)]
            if norm != 1:
                row = [(a // norm, b // norm, c // norm, d // norm) for a, b, c, d in row]
            rows.append(row)
        grid = rows
        conj, norm = _other_conjugates(pivot)
    a, b, c, d = grid[0][0]
    return _make(a, b, c, d, den**n) if sign == 1 else _make(-a, -b, -c, -d, den**n)


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
