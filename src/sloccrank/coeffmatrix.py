"""Coefficient matrices of pure states and the row/column qubit swaps.

An n-qubit state reshapes into a 2^(n//2) by 2^((n+1)//2) matrix: the first
n//2 qubits of each basis index select the row, the remaining qubits select
the column.  Exchanging some row qubits with column qubits before reshaping
gives another matrix whose rank is an equally good invariant.

``enumerate_sigmas`` lists one swap set per distinct bipartition.  It walks
subsets of removable row qubits paired with incoming column qubits in order;
for even n the last row qubit is never swapped out, which keeps exactly one
representative of each complementary pair of bipartitions (complementing the
row set merely transposes the matrix).  The resulting count is
(1/2)^((n+1) mod 2) * C(n, n//2).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations

from .scalar import Scalar, ZERO
from .states import PureState, check_qubits

__all__ = [
    "QubitPermutation",
    "IDENTITY",
    "CoeffMatrix",
    "enumerate_sigmas",
    "coefficient_matrix",
]


class QubitPermutation:
    """A product of disjoint transpositions of 1-based qubit labels.

    Each pair is normalized to (small, large) and pairs are kept sorted; the
    empty product is the identity.  Being made of disjoint transpositions,
    every instance is an involution.
    """

    __slots__ = ("transpositions",)

    def __init__(self, transpositions=()) -> None:
        pairs = []
        for pair in transpositions:
            q, t = pair
            if not all(isinstance(label, int) and not isinstance(label, bool) and label >= 1
                       for label in (q, t)):
                raise ValueError(f"bad transposition {pair!r}: labels must be positive ints")
            if q == t:
                raise ValueError(f"bad transposition {pair!r}: labels must differ")
            if q > t:
                q, t = t, q
            pairs.append((q, t))
        pairs.sort()
        labels = [label for pair in pairs for label in pair]
        if len(set(labels)) != len(labels):
            raise ValueError("transpositions must be disjoint")
        self.transpositions = tuple(pairs)

    @property
    def is_identity(self) -> bool:
        return not self.transpositions

    def image(self, label: int) -> int:
        """Where ``label`` ends up; an involution, so also the preimage."""
        for q, t in self.transpositions:
            if label == q:
                return t
            if label == t:
                return q
        return label

    def max_label(self) -> int:
        return max((t for _, t in self.transpositions), default=0)

    @classmethod
    def from_text(cls, text: str) -> QubitPermutation:
        """Parse the ``"q:t,q:t"`` form; the empty string is the identity."""
        text = text.strip()
        if not text:
            return cls()
        pairs = []
        for chunk in text.split(","):
            left, sep, right = chunk.partition(":")
            if not sep:
                raise ValueError(f"bad transposition {chunk!r}: expected q:t")
            labels = (left.strip(), right.strip())
            if not all(label.isascii() and label.isdigit() for label in labels):
                raise ValueError(f"bad transposition {chunk!r}: labels must be positive integers")
            pairs.append((int(labels[0]), int(labels[1])))
        return cls(pairs)

    def to_text(self) -> str:
        return ",".join(f"{q}:{t}" for q, t in self.transpositions)

    def __iter__(self):
        return iter(self.transpositions)

    def __len__(self) -> int:
        return len(self.transpositions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QubitPermutation):
            return NotImplemented
        return self.transpositions == other.transpositions

    def __hash__(self):
        return hash(self.transpositions)

    def __repr__(self) -> str:
        return f"QubitPermutation({self.transpositions!r})"


IDENTITY = QubitPermutation()


class CoeffMatrix:
    """The coefficient matrix of a state under the cut ``sigma``, laid out only when read.

    A cut is the state's amplitude map ``values``, in ascending index order
    as a ``PureState`` keeps it, plus ``(n, sigma)``: entry (i, j) of the
    2^(n//2) by 2^(n - n//2) matrix is the amplitude at the basis index
    whose relabeling by ``sigma`` reads i << (n - n//2) | j, zero where
    there is none.  The rank engine reads a cut through :meth:`block`, the
    slots of its block of nonzero rows and columns, row by row, a slot being
    an amplitude's place in the order of ``values``; ``entries`` lays the
    whole matrix out as scalars.  The block is laid out one of two ways, by
    the size of the support:

    - every one of the 2^n indices holds an amplitude: the block is the
      whole matrix, and slot k is index k, so cell (i, j) holds slot
      relabel(i << w) | relabel(j), w = n - n//2.  That costs 2^(n//2) +
      2^(n - n//2) relabelings and one OR per cell;
    - otherwise :meth:`positions` places each amplitude in the matrix in
      O(terms), and the block is read off those positions
      (:func:`block_slots`), so a sparse cut never touches the 2^n zeros
      around its block.

    Cuts made by ``rank.state_cuts`` also share one scaling of their state
    in ``_scaled``, so ``exact_rank`` reduces the state once per prime,
    however many of its cuts it ranks.
    """

    __slots__ = ("values", "n", "sigma", "_scaled")

    def __init__(self, values: dict[int, Scalar], n: int, sigma: QubitPermutation) -> None:
        if sigma.max_label() > n:
            raise ValueError(f"transposition label {sigma.max_label()} exceeds n={n}")
        self.values = values
        self.n = n
        self.sigma = sigma
        self._scaled = None

    def positions(self) -> list[int]:
        """The row-major position in the matrix of each amplitude, in the order of ``values``.

        A relabeling only moves bits, and row bits and column bits never
        share a position, so relabel(r << w | c) = relabel(r << w) |
        relabel(c) with w the column width.  Only the row parts and the
        column parts that occur are relabeled, at most once per row and
        once per column, so the cost is O(terms) plus those calls.
        """
        relabel = _relabel(self.sigma, self.n)
        width = self.n - self.n // 2
        mask = (1 << width) - 1
        rows = {r: relabel(r << width) for r in {index >> width for index in self.values}}
        cols = {c: relabel(c) for c in {index & mask for index in self.values}}
        return [rows[index >> width] | cols[index & mask] for index in self.values]

    def block(self) -> tuple[list[int], Sequence[int]]:
        """(slots, cols): the block of nonzero rows and columns, as :func:`block_slots` gives it.

        Slot k holds the k-th amplitude of ``values``, and slot
        ``len(values)`` the zero of an empty cell.
        """
        if len(self.values) < 1 << self.n:
            return block_slots(self.positions(), self.cols)
        relabel = _relabel(self.sigma, self.n)
        width = self.n - self.n // 2
        rows = [relabel(r << width) for r in range(self.rows)]
        cols = [relabel(c) for c in range(self.cols)]
        return [r | c for r in rows for c in cols], range(self.cols)

    @property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        flat = [ZERO] * (self.rows * self.cols)
        for position, value in zip(self.positions(), self.values.values()):
            flat[position] = value
        cols = self.cols
        return tuple(tuple(flat[k:k + cols]) for k in range(0, len(flat), cols))

    @property
    def rows(self) -> int:
        return 1 << (self.n // 2)

    @property
    def cols(self) -> int:
        return 1 << (self.n - self.n // 2)

    def __repr__(self) -> str:
        return f"CoeffMatrix({self.rows}x{self.cols}, sigma={self.sigma.to_text()!r})"


def enumerate_sigmas(n: int) -> list[QubitPermutation]:
    """All distinct row/column swap sets, identity first, ordered by size.

    For even n the swaps never move the last row qubit, so complementary
    bipartitions (which only transpose the matrix) appear once.
    """
    check_qubits(n)
    half = n // 2
    removable = range(1, half) if n % 2 == 0 else range(1, half + 1)
    incoming = range(half + 1, n + 1)
    sigmas = []
    for k in range((n - 1) // 2 + 1):
        for qs in combinations(removable, k):
            for ts in combinations(incoming, k):
                sigmas.append(QubitPermutation(tuple(zip(qs, ts))))
    return sigmas


def _relabel(sigma: QubitPermutation, n: int):
    """The basis-index map of ``sigma``: exchange the bits of each (q, t) pair."""
    # (shift of q's bit, shift of t's bit, both bits): the pair is exchanged
    # only when its two bits differ, by flipping both.
    pairs = [(n - q, n - t, 1 << (n - q) | 1 << (n - t)) for q, t in sigma.transpositions]

    def relabel(index: int) -> int:
        out = index
        for a, b, both in pairs:
            if (index >> a ^ index >> b) & 1:
                out ^= both
        return out

    return relabel


def block_slots(positions: list[int], width: int) -> tuple[list[int], list[int]]:
    """(slots, cols) for a matrix ``width`` columns wide whose slot k sits at row-major ``positions[k]``.

    The block is the sorted nonzero rows and ``cols``, the sorted nonzero
    columns; ``slots`` lists, row by row, the slot at each of its cells, or
    ``len(positions)`` where the cell is empty.
    """
    slot = dict(zip(positions, range(len(positions)))).get
    zero = len(positions)
    rows = sorted({position // width for position in positions})
    cols = sorted({position % width for position in positions})
    return [slot(r * width + c, zero) for r in rows for c in cols], cols


def coefficient_matrix(state: PureState, sigma: QubitPermutation | None = None) -> CoeffMatrix:
    """Reshape ``state`` after relabeling by ``sigma`` (identity by default).

    Row index bits are the first n//2 qubits of the relabeled state, in
    ascending index order; entry (i, j) is the amplitude whose row bits read
    i in binary and whose column bits read j.  Nothing is laid out here.
    """
    return CoeffMatrix(state.amps, state.n, IDENTITY if sigma is None else sigma)
