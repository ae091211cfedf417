"""Shared randomized-construction helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from sloccrank.coeffmatrix import QubitPermutation
from sloccrank.scalar import GaussRational, Scalar
from sloccrank.slocc import LocalOperator, apply_local, random_invertible_ops
from sloccrank.states import PureState, basis_state


def random_scalar(rng: random.Random, pool: int = 2) -> Scalar:
    """A full field element with small numerators and denominators."""

    def frac() -> Fraction:
        return Fraction(rng.randint(-pool, pool), rng.randint(1, pool))

    return Scalar(GaussRational(frac(), frac()), GaussRational(frac(), frac()))


def random_gauss_int(rng: random.Random, pool: int = 3, nonzero: bool = False) -> Scalar:
    while True:
        value = Scalar(GaussRational(rng.randint(-pool, pool), rng.randint(-pool, pool)))
        if value or not nonzero:
            return value


def random_rational_scalar(rng: random.Random) -> Scalar:
    return Scalar(
        GaussRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
        )
    )


def random_state(rng: random.Random, n: int, max_terms: int = 8, rational: bool = False) -> PureState:
    """A sparse state with up to ``max_terms`` small nonzero amplitudes."""
    dim = 1 << n
    indices = rng.sample(range(dim), min(rng.randint(1, max_terms), dim))
    amps: dict[int, Scalar] = {}
    for index in indices:
        amp = random_rational_scalar(rng) if rational else random_gauss_int(rng)
        if amp:
            amps[index] = amp
    if not amps:
        amps[indices[0]] = Scalar(1)
    return PureState(n, amps)


def random_product_state(rng: random.Random, n: int, pool: int = 2) -> PureState:
    """Tensor product of random single-qubit states; rank 1 along any split."""
    amps: dict[int, Scalar] = {0: Scalar(1)}
    for _ in range(n):
        while True:
            lo = random_gauss_int(rng, pool)
            hi = random_gauss_int(rng, pool)
            if lo or hi:
                break
        extended: dict[int, Scalar] = {}
        for index, amp in amps.items():
            if lo:
                extended[index << 1] = amp * lo
            if hi:
                extended[(index << 1) | 1] = amp * hi
        amps = extended
    return PureState(n, amps)


def random_singular_operator(rng: random.Random, pool: int = 2) -> LocalOperator:
    """Rank <= 1 operator built as an outer product, so det is exactly 0."""
    u = [random_gauss_int(rng, pool) for _ in range(2)]
    v = [random_gauss_int(rng, pool) for _ in range(2)]
    return LocalOperator(((u[0] * v[0], u[0] * v[1]), (u[1] * v[0], u[1] * v[1])))


def dense_state(seed: int, n: int, field: bool) -> tuple[PureState, int]:
    """A sparse state made dense by invertible local operators, and its term count.

    With ``field`` the amplitudes are full field elements (fractions and
    sqrt2 parts); otherwise they are small Gaussian integers.
    """
    rng = random.Random(seed)
    if field:
        indices = rng.sample(range(1 << n), min(rng.randint(1, 8), 1 << n))
        amps = {index: random_scalar(rng) for index in indices}
        sparse = PureState(n, amps, allow_zero=True)
        if sparse.is_zero:
            sparse = basis_state(n, indices[0])
    else:
        sparse = random_state(rng, n)
    return apply_local(sparse, random_invertible_ops(n, seed)), len(sparse.amps)


def cut_qubits(sigma: QubitPermutation, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The qubits behind the rows and behind the columns of the cut by ``sigma``.

    Slot k of the default split (rows 1..n//2, columns n//2+1..n) holds
    qubit ``sigma.image(k)``.
    """
    half = n // 2
    return (tuple(sigma.image(k) for k in range(1, half + 1)),
            tuple(sigma.image(k) for k in range(half + 1, n + 1)))


def split_matrix(state: PureState, row_bits, col_bits) -> tuple[tuple[Scalar, ...], ...]:
    """The coefficient matrix of ``state`` with ``row_bits`` indexing its rows and ``col_bits`` its columns.

    The independent reshaping reference: an amplitude's row-major position
    is read bit by bit from its basis index, qubit by qubit, with no
    relabeling pass, and the whole matrix is laid out.
    """
    n = state.n
    bits = tuple(row_bits) + tuple(col_bits)
    if sorted(bits) != list(range(1, n + 1)):
        raise ValueError("row and column bits must partition 1..n")
    flat = [Scalar(0)] * (1 << n)
    for index, amp in state.amps.items():
        position = 0
        for q in bits:
            position = (position << 1) | ((index >> (n - q)) & 1)
        flat[position] = amp
    width = 1 << len(col_bits)
    return tuple(tuple(flat[k:k + width]) for k in range(0, 1 << n, width))
