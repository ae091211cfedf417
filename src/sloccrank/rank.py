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
so its cuts share one such set per prime and lane width, and one set per
coordinate and lane width for the exact pass below.  Per prime, one
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
fifths as much, so the first prime finds a rank cheaply.  Against a plan
of one-digit primes only (``_certified_rank`` whole, residues included,
alternating in one process; Python 3.11, a shared 2-core Xeon), the two
sizes took 0.82 to 0.84 of the time on 16 x 16 blocks of rank 14 and 15,
0.78 at degree 4, and within 10% of it on 64 x 64 blocks of rank 60 and
63.  On a 256 x 256 cut of rank 255 of a 16-qubit state they took 1.08 of
it (11.6 to 12.5 against 11.1 to 11.3 s), but kept 37 residue sets of the
state's values against 101 and half the peak RSS growth (183 against
366 MB).  So both sizes stay.

Prime plan.  Unless the exact pass at the state's start (below) closes
it, the first elimination of every block is modulo the largest one-digit
prime.  It finds the rank, and it alone closes a block whose rank needs
no bound (full column rank, or full row rank with no column skipped).
While the stop rule below is not met, each further prime is the next
81-bit one, unless one more one-digit prime would close it; then it is
the next one-digit prime.  Before the first 81-bit prime, the exact pass
below may close the block instead.  The two lists share no prime, so M
below is a product of distinct primes = 1 (mod 8), whichever sizes it took.

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

Exact pass.  One fraction-free Gauss-Jordan elimination in row order
(``_exact_pass``) finds the rank and pivots with no prime, or gives up as
soon as a (cap+1)-th row would join.  It keeps det, the last pivot (1 at
first), and a row G_t per row that joined, with lead J_t.  Row k gives v =
det * A[k, :] - sum_t A[k, J_t] * G_t: a zero v is dropped, and a nonzero
one joins with its lowest nonzero column j as its lead; each G_t becomes
(v_j * G_t - G_t[j] * v) / det, v joins G, and det becomes v_j.  Proof:
with I the rows that joined and M = A[I, J], G = adj(M) * A[I, :] is
det(M) at (t, J_t) and 0 at the other leads, so v is 0 at every lead, and
its entry at column c is the minor of A on rows I + {k} and columns J +
{c} (Schur complement).  So v is 0 exactly when row k lies in the span of
the rows I, v_j is the next det, and the update is the next adj * A[I, :],
an exact division by Sylvester's identity (Bareiss, Math. Comp. 22, 1968),
done through ``scalar._other_conjugates`` as ``exact_det`` does.  Each G_t
and v is 0 left of its lead, so G sorted by lead is an echelon basis of
the row space: the leads are the pivots of first-nonzero elimination,
worked out exactly.  The entries lie in Z[theta], theta one of i, sqrt2
and i*sqrt2 (or in Z): a row is packed as two coordinate planes (the
second is 0 for Q) in signed lanes of W bits, the bit length of (r+1) *
r! * E^(r+1), r the cap and E the state's largest ``coord_bound``, plus a
sign bit, in whole bytes.  Every G_t and v read is an s-minor, s <= r+1,
with coordinates below s! * E^s, so a packed int is 0 only if every lane
is, and its lowest set bit lies in its lowest nonzero lane; products and
exact divisions act on a packed int lane by lane, whatever its lanes hold
in between.  Degree-4 entries keep the primes: their products take 16
multiplications, not 4.

Start rule.  A state's scaling keeps ``start``, the rank its last cut
closed at on the pass, or None when that cut closed on primes; a grid is
scaled anew on every call, so it has none.  A cut with a start runs the
pass at cap = start before any prime: a cut of lower rank closes there,
at wider lanes, and one of higher rank gives up and takes the prime plan.
The pass closes only on the exact rank and pivots, so the order of a
state's cuts changes their steps and cost, never a rank or a pivot.  Cuts
often share one rank (Dicke |l,n> has min(l, n-l, k, n-k) + 1 on every
cut k | n-k), and those after the first then take no prime.

Route rule.  ``_span_pays`` predicts both costs from the block's m rows
and n columns, r the first prime's rank, the lane width w = W/8 bytes and
d, the planes packed (1 or 2): it takes the pass at cap r when 7 * d * S
< 8 * k * m * (r+2) * (22n + 400).  S = (m-r)(r+1)(nw + 400) + 2mnw +
0.4 r(r-1)(n w^2 + 400) counts the row products, the packing, and the
Gauss-Jordan steps, whose multipliers grow with w.  k counts the primes
the plan still takes, an 81-bit prime as 1 and a one-digit top-up as 1/2,
and the product after it is an 81-bit elimination's cost.  On sums of r
products of Gaussian integers (Python 3.11, a 2-core Xeon), the pass took
0.5 to 0.9 of the primes' time up to r = 9 of 16 and at r <= 6 of 32 and
128, but 1.25 at r = 3 of 16 with 5-bit entries (one top-up left), 1.1
to 2.3 from r = 12 of 16 and 5.3 at r = 31 of 32; the rule picks the
cheaper route in each case.

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
Gaussian elimination with first-nonzero pivoting.  ``_pivots_lanes`` runs
this on every block, one column wide or more, its rows packed as below.

Lanes.  ``_pivots_lanes`` packs each row into one int: column j's residue
mod p in lane j, the ``width`` bytes from bit 8*width*j, column 0 lowest.
A basis row is kept as its lead's shift, the mask ``below`` of the bits up
to its lead lane's top, the inverse of its lead mod p and its negation
(p - b in each lane).  The row that fills the basis and the block's last
row are read by no later row, so they keep only their lead and take no
inverse.  Reducing a row against a basis row is one lane read, one
multiply by that inverse mod p, and one multiply-add of the factor times
the negation, with no reduction in between.  The lane is read from the
row's low end, (x & below) >> shift (no lane is ever negative), so a lead
in lane j costs O(j) digits, not a shift of the whole row.  A lane x then
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

Determinant.  ``exact_det`` reads the same block: with fewer than n rows
or columns it has determinant 0, and otherwise it is the whole matrix,
whose scaled values fraction-free (Bareiss) elimination runs on; the
result is divided by den^n at the end; the determinant of a state's
identity cut is kept on the state.  Each row is packed as one int per
coordinate plane of ``_planes`` (one for Q, two for Q(i), Q(sqrt2) or
Q(i*sqrt2), four otherwise), column j in lane j, in signed lanes of W
bytes: a row is sum v_j * 2^(8Wj).  Step k takes the first row whose lane
0 is nonzero as its pivot row (a swap flips the sign; with none, the
determinant is 0), p its lane 0.  ``scalar._other_conjugates`` gives c,
the product of the previous pivot q's other conjugates, and the positive
int N = q * c (c = N = 1 at step 0).  Every other row, with lane 0 l,
becomes (p*c * row - l * (c * pivot row)) / N, each product by
``scalar._product_rule`` on the planes, a small int times a whole row.
Why the division acts lane by lane: sums and products by ints act on a
packed int as on a polynomial in 2^(8W), whatever carries pass between
lanes in between, so the numerator is N * sum m_j * 2^(8Wj), where m_j =
(p * v_j - l * u_j) * c / N, u the pivot row, is the entry after step k:
by Sylvester's identity a (k+2) x (k+2) minor of the scaled matrix, in
Z[i, sqrt2].  Its floor division by N is then exact and leaves m_j in
lane j.  Lane 0 is p*l - l*p = 0, so the numerator is a multiple of
2^(8W) and is shifted down one lane first, and the row loses the
eliminated column.  Lane bound: mu (``coord_bound``) is submultiplicative,
so an m-minor's coordinates are below m! * E^m, E the state's largest mu
(``_Scaled.largest()``); a lane holds every m-minor when W is that bound's
bit length plus a sign bit, in whole bytes (``_span_width(m-1, E)``), and
then lane 0 reads back as ((x + 2^(8W-1)) mod 2^(8W)) - 2^(8W-1).  Lanes
start at the width of a 4-minor, the exact pass's at cap 3, so a state
whose cuts closed on that pass has its rows' bytes packed already.  Before
a step whose minors would not fit, every lane is widened for m-minors, m
= (k+2) + (k+2)//4 + 1 (n at most): each row plus 2^(8W-1) in every lane
has its lane bytes padded, and the wider lanes' bias is taken off.  So a
lane is never much more than a quarter wider than its step needs, where a
fixed n-minor width would make every early step carry the last step's.
``_bareiss`` and ``_exact_pass`` stay two routines because each is the
faster at its own task: the pass's row order took 2.3 times as long for the
determinants of 8 x 8 cuts and 2.4 to 12 times on 16 to 64 wide grids,
column-order Bareiss with a cap 2.3 to 5.5 times as long for ranks of dense
cuts, and the pass with ``_product_rule`` products 1.3 to 2.5 times.

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
from operator import itemgetter, mul

from .coeffmatrix import CoeffMatrix, block_slots
from .scalar import ONE, ZERO, Scalar, _make, _other_conjugates, _product_rule, as_scalar, coord_bound, scaled_coords
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

def _planes(entries) -> tuple[int, ...]:
    """The coordinates spanning the smallest of Q, Q(i), Q(sqrt2), Q(i*sqrt2) holding every entry.

    An entry (a, b, c, d) is a + b*i + (c + d*i)*sqrt2: the field is Q, (0,),
    when every b, c and d is zero, and (0, k) when only coordinate k of b, c,
    d is ever nonzero; otherwise all four.  Its degree [K : Q] is their number.
    """
    used = [k for k, plane in enumerate(zip(*entries)) if k and any(plane)]
    return (0, *used) if len(used) < 2 else (0, 1, 2, 3)


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
    """The leads, in joining order, of rows packed as ``count`` lanes of residues mod m: the module docstring's elimination."""
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
    return leads


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
    """Rank and pivots of the matrix, ``ncols`` wide, that ``scaled`` holds at ``slots``, by the module docstring's plan.

    Entry (i, j) is value ``slots[i * ncols + j]`` of ``scaled``.  Each
    prime's lane bytes, gathered through the slots in one call, are joined
    into packed rows for ``_pivots_lanes``.  ``best[k]``, the smallest
    (k+1)-th lead any prime has shown, holds the pivots, and its entries up
    to c count the rank of columns 0..c.  The e^2 sums are sorted once, and
    each check multiplies only the ``missing`` largest.  ``taken[limit]``
    counts the primes of each size.  A pass that closes sets ``scaled.start``.
    """
    start, scaled.start = scaled.start, None
    # Only a pass closes with a start, and no pass runs on degree-4 entries.
    leads = None if start is None else _exact_pass(scaled, slots, ncols, start)
    if leads is not None:
        return RankResult(len(leads), tuple(leads))
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
        leads = sorted(_pivots_lanes(_packed(gather(scaled.lane_bytes(field, width)), ncols * width), p, ncols))
        first = modulus == 1
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
        bound = min(math.prod(row_sums[:missing]), math.prod(col_sums[:missing])) ** len(scaled.planes)
        if modulus * modulus > bound:
            break
        top_up = modulus * _field(taken[_DIGIT_LIMIT], _DIGIT_LIMIT)[0]
        if top_up * top_up > bound:
            limit = _DIGIT_LIMIT
            continue
        if first and _span_pays(scaled, nrows, ncols, rank, modulus, bound):
            leads = _exact_pass(scaled, slots, ncols, rank)
            if leads is not None:
                return RankResult(len(leads), tuple(leads))
        limit = _PRIME_LIMIT
    return RankResult(rank, tuple(best))


def _span_pays(scaled: _Scaled, nrows: int, ncols: int, rank: int, modulus: int, bound: int) -> bool:
    """Whether the exact pass is predicted to cost less than the primes the plan still needs.

    The module docstring's "Route rule" states the two costs and where they cross.
    """
    if len(scaled.planes) == 4:
        return False
    width = _span_width(rank, scaled.largest())
    bits, primes = modulus.bit_length() - 1, 0.0  # log2 of M, and the primes the plan still takes
    while 2 * bits < bound.bit_length():
        if 2 * (bits + 29) >= bound.bit_length():  # a one-digit top-up closes the rule
            primes += 0.5
            break
        bits, primes = bits + 80, primes + 1
    span = ((nrows - rank) * (rank + 1) * (ncols * width + 400) + 2 * nrows * ncols * width
            + 0.4 * rank * (rank - 1) * (ncols * width * width + 400))
    return 7 * len(scaled.planes) * span < 8 * primes * nrows * (rank + 2) * (22 * ncols + 400)


def _exact_pass(scaled: _Scaled, slots: list[int], ncols: int, cap: int) -> list[int] | None:
    """The block's sorted pivots by the module docstring's exact pass, or None once a (cap+1)-th row would join.

    A scalar is a + b*theta, theta^2 = s, and a row the pair of its planes,
    coordinates 0 and q (for Q, q = 1, whose plane is 0), read from lanes
    holding v + 2^(W-1) (``coord_bytes``), ``bias`` taken off.  ``basis``
    holds each G_t as (x, s*y, y, J_t); (d0, d1) is det, (c0, c1) its other conjugate.
    """
    q = scaled.planes[-1] or 1
    s = (0, -1, 2, -2)[q]  # the square of i, sqrt2 or i*sqrt2
    width = _span_width(cap, scaled.largest())
    bits, mask, half = 8 * width, (1 << 8 * width) - 1, 1 << 8 * width - 1
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * ncols, "little")
    gather, coords = _gather(slots), scaled.coords
    rows = zip(*(_packed(gather(scaled.coord_bytes(p, width)), ncols * width) for p in (0, q)))
    basis, leads = [], []
    d0, d1, c0, c1, norm = 1, 0, 1, 0, 1
    last = len(slots) // ncols - 1
    for k, (x, y) in enumerate(rows):
        x, y = x - bias, y - bias
        if basis:  # v = det * A[k, :] - sum_t A[k, J_t] * G_t
            x, y = d0 * x + s * d1 * y, d0 * y + d1 * x
            row = k * ncols
            for g0, sg1, g1, j in basis:
                cell = coords[slots[row + j]]
                a, b = cell[0], cell[q]
                x -= a * g0 + b * sg1
                y -= a * g1 + b * g0
        if not (x or y):
            continue
        if len(leads) == cap:
            return None
        low = x | y
        j = ((low & -low).bit_length() - 1) // bits
        leads.append(j)
        if len(leads) == ncols or k == last:  # no later row reads G
            break
        shift = bits * j  # lane j of a row: ((row + bias) >> shift & mask) - half
        e0, e1 = ((x + bias) >> shift & mask) - half, ((y + bias) >> shift & mask) - half
        f0, f1 = e0 * c0 + s * e1 * c1, e0 * c1 + e1 * c0  # v_j times det's other conjugate
        for t, (g0, _, g1, lead) in enumerate(basis):
            # G_t becomes (v_j * G_t - G_t[j] * v) / det, each coordinate of the product by c divided by norm.
            a0, a1 = ((g0 + bias) >> shift & mask) - half, ((g1 + bias) >> shift & mask) - half
            a0, a1 = a0 * c0 + s * a1 * c1, a0 * c1 + a1 * c0
            g0, g1 = ((f0 * g0 + s * f1 * g1 - a0 * x - s * a1 * y) // norm,
                      (f0 * g1 + f1 * g0 - a0 * y - a1 * x) // norm)
            basis[t] = g0, s * g1, g1, lead
        basis.append((x, s * y, y, j))
        conj, norm = _other_conjugates((e0, e1 * (q == 1), e1 * (q == 2), e1 * (q == 3)))
        d0, d1, c0, c1 = e0, e1, conj[0], conj[q]
    scaled.start = len(leads)
    return sorted(leads)


def _span_width(rank: int, e: int) -> int:
    """Bytes per signed lane holding (rank+1) * rank! * e^(rank+1): the exact pass's at cap ``rank``, ``exact_det``'s for (rank+1)-minors."""
    return ((rank + 1) * math.factorial(rank) * e ** (rank + 1)).bit_length() // 8 + 1


class _Scaled:
    """Values times ``den``, the lcm of their denominators, as ``coords`` in Z[i, sqrt2], plus one zero slot.

    Slot k holds ``values[k]`` and slot ``len(values)`` holds 0, the entry a
    block takes where the matrix has no value.  ``planes`` are the
    coordinates of the smallest field holding them all (``_planes``), and
    ``lane_bytes``, ``coord_bytes``, ``squares()`` and ``largest()`` are
    made on first use and kept; ``start`` is the start rule's rank.
    """

    __slots__ = ("den", "coords", "planes", "start", "_squares", "_largest", "_bytes")

    def __init__(self, values: Iterable[Scalar]) -> None:
        self.den, coords = scaled_coords(values)
        coords.append((0, 0, 0, 0))
        self.coords = coords
        self.planes = _planes(coords)
        self.start: int | None = None
        self._squares: list[int] | None = None
        self._largest: int | None = None
        self._bytes: dict[tuple[int, int], list[bytes]] = {}

    def lane_bytes(self, field: tuple[int, int, int], width: int) -> list[bytes]:
        """The values' residues in ``field`` = (p, i_p, s_p), as ``width``-byte little-endian lanes, kept per (p, width)."""
        p, i_p, s_p = field
        key = (p, width)
        if key not in self._bytes:
            self._bytes[key] = [((a + b * i_p + (c + d * i_p) * s_p) % p).to_bytes(width, "little")
                                for a, b, c, d in self.coords]
        return self._bytes[key]

    def coord_bytes(self, q: int, width: int) -> list[bytes]:
        """The values' coordinate q plus 2^(8*width-1), as ``width``-byte little-endian lanes, kept per (q, width)."""
        key = (q, width)
        if key not in self._bytes:
            half = 1 << 8 * width - 1
            self._bytes[key] = [(x[q] + half).to_bytes(width, "little") for x in self.coords]
        return self._bytes[key]

    def squares(self) -> list[int]:
        """e^2 per value, where e = ``coord_bound`` of the value bounds the modulus of every conjugate."""
        if self._squares is None:
            self._squares = [coord_bound(x) ** 2 for x in self.coords]
        return self._squares

    def largest(self) -> int:
        """The largest e = ``coord_bound`` of any value."""
        if self._largest is None:
            self._largest = math.isqrt(max(self.squares()))
        return self._largest


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


def exact_det(matrix) -> Scalar:
    """Exact determinant by fraction-free (Bareiss) elimination on packed coordinate planes.

    The matrix is read through ``_block``, as ``exact_rank`` reads it, and
    eliminated by ``_bareiss`` (the module docstring's "Determinant").  The
    determinant of a state's identity cut is kept on the state
    (``PureState._det``): taken on its first use and read on every later one.
    """
    if isinstance(matrix, CoeffMatrix) and matrix.sigma.is_identity:
        state = matrix.state
        if state._det is None:
            state._det = _bareiss(matrix)
        return state._det
    return _bareiss(matrix)


def _bareiss(matrix) -> Scalar:
    """The determinant of ``matrix``, read through ``_block``, by the module docstring's Bareiss elimination.

    ``rows`` holds the rows not yet taken as pivots, each as one packed int
    per plane of ``planes``, the eliminated columns shifted off, so lane 0
    is column k at step k, in lanes of ``size`` bytes.  ``dots[j]`` is row j
    of the rule of p*c followed by row j of that of -(c * pivot row), both
    on the planes: new plane j of a row is its dot product with the row's
    planes and then their lane 0.  The loop runs to the last step, whose
    one row's lane 0, times the sign of the swaps and over den^n, is the
    determinant.
    """
    scaling, slots, _, n, width = _block(matrix)
    if n != width:
        raise ShapeError(f"determinant needs a square matrix, got {n}x{width}")
    if n == 0:
        return ONE
    if len(slots) < n * n:
        return ZERO
    planes, e, gather = scaling.planes, scaling.largest(), _gather(slots)
    pick = _gather(planes)
    size = _span_width(min(n, 4) - 1, e)  # lanes for every 4-minor, widened as the minors grow
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")
    rows = [[x - bias for x in row]
            for row in zip(*(_packed(gather(scaling.coord_bytes(q, size)), n * size) for q in planes))]
    sign, conj, norm = 1, (1, 0, 0, 0), 1  # the previous pivot's other conjugates and norm
    half = 1 << 8 * size - 1
    mask = 2 * half - 1
    for k in range(n):
        for i, row in enumerate(rows):
            if any(x & mask for x in row):
                break
        else:
            return ZERO
        if i:
            rows[0], rows[i] = rows[i], rows[0]
            sign = -sign
        if _span_width(min(k, n - 2) + 1, e) > size:  # re-lane (the last step reads lane 0 only): pad each biased lane
            count, wider = n - k, _span_width(min(n - 1, k + 2 + (k + 2) // 4), e)
            pad, lane = bytes(wider - size), bytes(size - 1) + b"\x80"
            bias, wide = int.from_bytes(lane * count, "little"), int.from_bytes(pad.join([lane] * count), "little")
            rows = [[int.from_bytes(pad.join(blob[j:j + size] for j in range(0, count * size, size)), "little") - wide
                     for blob in [(x + bias).to_bytes(count * size, "little") for x in row]] for row in rows]
            size = wider
            half = 1 << 8 * size - 1
            mask = 2 * half - 1
        pivot, top = [0] * 4, [0] * 4
        for q, x in zip(planes, rows[0]):
            pivot[q], top[q] = (x + half & mask) - half, -x
        if k == n - 1:
            return _make(*[sign * x for x in pivot], scaling.den**n)
        p, t = (_product_rule([sum(map(mul, r, x)) for r in _product_rule(conj)]) for x in (pivot, top))
        dots = [pick(p[j]) + pick(t[j]) for j in planes]  # P[j] on the row's planes, then T[j] on its lane 0
        rows = [[(sum(map(mul, dot, x)) >> 8 * size) // norm for dot in dots]
                for x in [row + [(y + half & mask) - half for y in row] for row in rows[1:]]]
        conj, norm = _other_conjugates(pivot)


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
