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

from itertools import combinations

from .scalar import Scalar, ZERO
from .states import PureState, check_qubits

__all__ = [
    "QubitPermutation",
    "IDENTITY",
    "BitSplit",
    "CoeffMatrix",
    "enumerate_sigmas",
    "permute_state",
    "coefficient_matrix",
    "split_for",
    "split_matrix",
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
            if not isinstance(q, int) or not isinstance(t, int) or q < 1 or t < 1:
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


class BitSplit:
    """Ordered assignment of qubit labels to matrix row and column slots."""

    __slots__ = ("row_bits", "col_bits")

    def __init__(self, row_bits, col_bits) -> None:
        row_bits = tuple(row_bits)
        col_bits = tuple(col_bits)
        n = len(row_bits) + len(col_bits)
        if sorted(row_bits + col_bits) != list(range(1, n + 1)):
            raise ValueError("row and column bits must partition 1..n")
        if len(row_bits) != n // 2:
            raise ValueError(f"row part must hold n//2 = {n // 2} qubits")
        self.row_bits = row_bits
        self.col_bits = col_bits

    @property
    def n(self) -> int:
        return len(self.row_bits) + len(self.col_bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitSplit):
            return NotImplemented
        return self.row_bits == other.row_bits and self.col_bits == other.col_bits

    def __hash__(self):
        return hash((self.row_bits, self.col_bits))

    def __repr__(self) -> str:
        return f"BitSplit(rows={self.row_bits}, cols={self.col_bits})"


class CoeffMatrix:
    """The coefficient matrix of a state under one bipartition, laid out only when read.

    Entry (i, j) is the amplitude ``values[table[i][j]]``, zero where there is
    none, and ``split`` names the qubits behind the rows and the columns.
    ``entries`` lays the matrix out as scalars; the rank engine reads
    ``values`` through ``table`` instead.  Cuts made by ``rank.state_cuts``
    also share one scaling of their state in ``_scaled``, so ``exact_rank``
    reduces the state once per prime however many of its cuts it ranks.
    The split may be given as the sigma that makes it from the default
    split; it is then built when first read, so ranking a cut never builds
    it.  The builders, :func:`coefficient_matrix` and :func:`split_matrix`,
    make a table of the split's shape.
    """

    __slots__ = ("values", "table", "_split", "_scaled")

    def __init__(self, values: dict[int, Scalar], table, split: BitSplit | QubitPermutation) -> None:
        self.values = values
        self.table = table
        self._split = split
        self._scaled = None

    @property
    def split(self) -> BitSplit:
        if isinstance(self._split, QubitPermutation):
            self._split = split_for(self._split, (self.rows * self.cols).bit_length() - 1)
        return self._split

    @property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        values = self.values
        return tuple(tuple(values.get(j, ZERO) for j in row) for row in self.table)

    @property
    def rows(self) -> int:
        return len(self.table)

    @property
    def cols(self) -> int:
        return len(self.table[0])

    def entry(self, i: int, j: int) -> Scalar:
        return self.values.get(self.table[i][j], ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoeffMatrix):
            return NotImplemented
        return self.entries == other.entries and self.split == other.split

    def __repr__(self) -> str:
        return f"CoeffMatrix({self.rows}x{self.cols}, row_bits={self.split.row_bits})"


def enumerate_sigmas(n: int) -> list[QubitPermutation]:
    """All distinct row/column swap sets, identity first, ordered by size.

    For even n the swaps never move the last row qubit, so complementary
    bipartitions (which only transpose the matrix) appear once.
    """
    check_qubits(n)
    if n < 2:
        raise ValueError("need at least 2 qubits to enumerate bipartitions")
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
    if sigma.max_label() > n:
        raise ValueError(f"transposition label {sigma.max_label()} exceeds n={n}")
    masks = [(1 << (n - q), 1 << (n - t)) for q, t in sigma.transpositions]

    def relabel(index: int) -> int:
        out = index
        for mq, mt in masks:
            if bool(index & mq) != bool(index & mt):
                out ^= mq | mt
        return out

    return relabel


def permute_state(state: PureState, sigma: QubitPermutation) -> PureState:
    """Relabel qubits by ``sigma``: exchange the contents of each (q, t) pair."""
    relabel = _relabel(sigma, state.n)
    if sigma.is_identity:
        return state
    return PureState(state.n, {relabel(i): amp for i, amp in state.amps.items()}, allow_zero=True)


def split_for(sigma: QubitPermutation, n: int) -> BitSplit:
    """The bipartition induced by applying ``sigma`` to the default split."""
    half = n // 2
    return BitSplit(
        [sigma.image(slot) for slot in range(1, half + 1)],
        [sigma.image(slot) for slot in range(half + 1, n + 1)],
    )


def _cut_table(sigma: QubitPermutation, n: int) -> list[list[int]]:
    """The basis index of each entry of the cut by ``sigma``, row by row.

    Entry (i, j) of the cut holds the amplitude at index table[i][j].  A
    relabeling only moves bits, and row bits and column bits never share a
    position, so relabel(i << w | j) = relabel(i << w) | relabel(j) with w the
    column width: the table costs one relabel call per row and per column.
    """
    relabel = _relabel(sigma, n)
    width = n - n // 2
    rows = [relabel(i << width) for i in range(1 << (n // 2))]
    cols = [relabel(j) for j in range(1 << width)]
    return [[row | col for col in cols] for row in rows]


def coefficient_matrix(state: PureState, sigma: QubitPermutation | None = None) -> CoeffMatrix:
    """Reshape ``state`` after relabeling by ``sigma`` (identity by default).

    Row index bits are the first n//2 qubits of the relabeled state, in
    ascending index order; entry (i, j) is the amplitude whose row bits read
    i in binary and whose column bits read j.  Nothing is laid out here.
    """
    sigma = IDENTITY if sigma is None else sigma
    return CoeffMatrix(state.amps, _cut_table(sigma, state.n), sigma)


def split_matrix(state: PureState, split: BitSplit) -> CoeffMatrix:
    """Reshape ``state`` along an explicit bipartition.

    This is the direct-extraction route (no relabeling pass, row-major
    positions); it is kept internal to the library and the test suite as an
    independent check on :func:`coefficient_matrix`.
    """
    n = state.n
    if split.n != n:
        raise ValueError(f"split covers {split.n} qubits but the state has {n}")
    bits = split.row_bits + split.col_bits
    values = {}
    for index, amp in state.amps.items():
        position = 0
        for q in bits:
            position = (position << 1) | ((index >> (n - q)) & 1)
        values[position] = amp
    width = 1 << len(split.col_bits)
    return CoeffMatrix(values, [range(r * width, (r + 1) * width) for r in range(1 << len(split.row_bits))], split)
