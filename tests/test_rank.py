"""Exact rank/determinant engines and the SVD cross-check."""

from __future__ import annotations

import ast
import importlib
import inspect
import itertools
import math
import os
import random
import subprocess
import sys
import threading
import typing
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sloccrank
import sloccrank.classify as classify_module
import sloccrank.rank as rank_module
from sloccrank.classify import rank_signature
from sloccrank.coeffmatrix import (
    IDENTITY,
    CoeffMatrix,
    QubitPermutation,
    block_slots,
    coefficient_matrix,
    enumerate_sigmas,
)
from sloccrank.rank import (
    NumericFailure,
    RankResult,
    ShapeError,
    _DIGIT_LIMIT,
    _PRIME_LIMIT,
    _field,
    _is_prime,
    exact_det,
    exact_rank,
    numeric_rank,
    to_complex_array,
)
from sloccrank.scalar import GaussRational, I, SQRT2, Scalar, ZERO, coord_bound, scalar_parse
from sloccrank.slocc import LocalOperator, apply_local
from sloccrank.states import PureState, basis_state, dicke_state, ghz_state, ladder_state

from conftest import cut_qubits, dense_state, random_gauss_int, random_scalar, random_state, split_matrix

SRC = str(Path(sloccrank.__file__).resolve().parents[1])


def scalar_grid(rows):
    return [[Scalar(v) if not isinstance(v, Scalar) else v for v in row] for row in rows]


def reference_rank(matrix) -> RankResult:
    """Gaussian elimination in Scalar arithmetic with first-nonzero pivoting.

    Slow but plainly exact: every pivot test is an exact comparison with
    zero in the field, so ``exact_rank`` must match it in rank and pivots.
    """
    grid = [list(row) for row in getattr(matrix, "entries", matrix)]
    if not grid or not grid[0]:
        return RankResult(0, ())
    nrows, ncols = len(grid), len(grid[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if grid[i][c]), None)
        if pivot_row is None:
            continue
        grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
        inv = grid[r][c].inverse()
        lead = grid[r]
        for i in range(r + 1, nrows):
            row = grid[i]
            if not row[c]:
                continue
            factor = row[c] * inv
            row[c] = ZERO
            for j in range(c + 1, ncols):
                if lead[j]:
                    row[j] = row[j] - factor * lead[j]
        pivots.append(c)
        r += 1
    return RankResult(r, tuple(pivots))


class TestExactRank:
    def test_ghz4(self):
        result = exact_rank(coefficient_matrix(ghz_state(4)))
        assert result.rank == 2
        assert result.pivot_columns == (0, 3)

    def test_zero_matrix(self):
        assert exact_rank(coefficient_matrix(PureState.zero(3))).rank == 0

    def test_result_unpacks_and_cannot_be_assigned(self):
        rank, pivots = exact_rank(coefficient_matrix(ghz_state(4)))
        assert (rank, pivots) == (2, (0, 3))
        result = exact_rank([[1, 2], [2, 4]])
        with pytest.raises(AttributeError):
            result.rank = 2
        assert result == RankResult(1, (0,))

    def test_dicke_4_2(self):
        assert exact_rank(coefficient_matrix(dicke_state(4, 2))).rank == 3

    def test_rank_bounds_for_valid_states(self):
        rng = random.Random(3)
        for n in range(2, 8):
            for _ in range(5):
                state = random_state(rng, n)
                rank = exact_rank(coefficient_matrix(state)).rank
                assert 1 <= rank <= 1 << (n // 2)

    def test_invariant_under_row_and_column_permutations(self):
        rng = random.Random(17)
        for _ in range(20):
            grid = [[random_gauss_int(rng) for _ in range(5)] for _ in range(4)]
            rank = exact_rank(grid).rank
            rows = list(grid)
            rng.shuffle(rows)
            order = list(range(5))
            rng.shuffle(order)
            shuffled = [[row[j] for j in order] for row in rows]
            assert exact_rank(shuffled).rank == rank
            assert exact_rank(list(zip(*grid))).rank == rank


class TestModularEngine:
    """The multi-prime engine against the Scalar reference and its own proof."""

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), field=st.booleans())
    def test_equals_reference_on_dense_states(self, n, seed, field):
        state, terms = dense_state(seed, n, field)
        for sigma in enumerate_sigmas(n):
            matrix = coefficient_matrix(state, sigma)
            result = exact_rank(matrix)
            assert result == reference_rank(matrix)
            assert result.rank <= min(terms, matrix.rows, matrix.cols)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), field=st.booleans())
    def test_transpose_and_term_bound(self, n, seed, field):
        state, terms = dense_state(seed, n, field)
        for sigma in enumerate_sigmas(n):
            matrix = coefficient_matrix(state, sigma)
            rank = exact_rank(matrix).rank
            assert exact_rank(list(zip(*matrix.entries))).rank == rank
            assert rank <= min(terms, matrix.rows, matrix.cols)

    @staticmethod
    def divisible_entries(first: int) -> None:
        # An entry divisible by the plan's first prime (one digit), or by its
        # first two (that one and the first 81-bit prime).
        product = math.prod(PLAN_START[:first])
        assert exact_rank(scalar_grid([[product, 1]])) == RankResult(1, (0,))
        # the zero row must not zero the bound for the 2 x 2 minors
        assert exact_rank(scalar_grid([[product, 1], [0, 0]])) == RankResult(1, (0,))

    def test_entry_divisible_by_first_prime(self):
        self.divisible_entries(1)

    def test_entry_divisible_by_first_two_primes(self):
        self.divisible_entries(2)

    def test_entry_divisible_by_first_three_primes(self):
        # the first three primes of each size, so whichever three the plan takes
        product = math.prod(_field(k, limit)[0] for limit in (_DIGIT_LIMIT, _PRIME_LIMIT) for k in range(3))
        assert exact_rank(scalar_grid([[product]])) == RankResult(1, (0,))

    @staticmethod
    def kernel_entries(first: int) -> None:
        # i - t and sqrt2 - t map to 0 modulo each of the plan's first primes,
        # t being i_p, or s_p, modulo each one (by the Chinese remainder
        # theorem), yet are nonzero.
        fields = PLAN_FIELDS[:first]
        for unit, part in ((I, 1), (SQRT2, 2)):
            entry = unit - crt([(field[0], field[part]) for field in fields])
            assert all(residue(entry, field) == 0 for field in fields)
            assert exact_rank([[entry, Scalar(1)]]) == RankResult(1, (0,))

    def test_entries_in_the_kernel_of_the_first_embedding(self):
        self.kernel_entries(1)

    def test_entries_in_the_kernel_of_the_first_two_embeddings(self):
        self.kernel_entries(2)

    @staticmethod
    def divisible_minors(first: int) -> None:
        product = math.prod(PLAN_START[:first])
        grid = scalar_grid([[1, 1], [1, 1 + product]])  # det = product
        assert exact_rank(grid) == RankResult(2, (0, 1))
        grid = scalar_grid([[product, 0, 1], [0, 1, 0]])
        assert exact_rank(grid) == reference_rank(grid) == RankResult(2, (0, 1))

    def test_minor_divisible_by_first_prime(self):
        self.divisible_minors(1)

    def test_minor_divisible_by_first_two_primes(self):
        self.divisible_minors(2)

    def test_tiny_fraction_entry(self):
        row = [Scalar(1), Scalar(Fraction(1, 10**300))]
        assert exact_rank([row]) == RankResult(1, (0,))
        assert exact_rank([row[::-1]]) == RankResult(1, (0,))

    def test_mixed_denominators_in_one_row(self):
        third = Fraction(1, 3)
        grid = [
            [Scalar(GaussRational(third, Fraction(1, 7))), Scalar(0, Fraction(1, 5))],
            [Scalar(GaussRational(1, Fraction(3, 7))), Scalar(0, Fraction(3, 5))],
        ]
        assert exact_rank(grid) == reference_rank(grid) == RankResult(1, (0,))

    def test_zero_and_empty(self):
        assert exact_rank([[ZERO] * 3] * 2) == RankResult(0, ())
        assert exact_rank([]) == RankResult(0, ())
        assert exact_rank([[]]) == RankResult(0, ())
        assert numeric_rank([]) == numeric_rank([[]]) == 0

    @pytest.mark.parametrize("function", [exact_rank, exact_det, numeric_rank, to_complex_array])
    @pytest.mark.parametrize("grid", [[[1], [2, 3]], [[0, 1], [1]], [[1, 2], [3]], [[], [1]]])
    def test_ragged_grid_raises(self, grid, function):
        with pytest.raises(ShapeError, match="one length"):
            function(scalar_grid(grid))

    @pytest.mark.parametrize("size", [4, 16])
    def test_a_prime_showing_a_lower_rank_lowers_nothing(self, monkeypatch, size):
        # Rank size - 1 from entries of about 100 bits, so the stop rule needs
        # several primes; the last one is made to lose its highest lead.  The
        # route rule is held to the primes, which this test is about; the
        # exact pass after a first prime that loses a lead is the next test.
        monkeypatch.setattr(rank_module, "_span_pays", lambda *args: False)
        rng = random.Random(size)
        us = [[rng.getrandbits(50) for _ in range(size)] for _ in range(size - 1)]
        vs = [[rng.getrandbits(50) for _ in range(size)] for _ in range(size - 1)]
        grid = [[sum(u[i] * v[j] for u, v in zip(us, vs)) for j in range(size)] for i in range(size)]
        real = rank_module._pivots_lanes
        calls, drop_at = [], [0]

        def kernel(*args):
            calls.append(1)
            leads = real(*args)
            if len(calls) == drop_at[0]:
                leads.remove(max(leads))
            return leads

        monkeypatch.setattr(rank_module, "_pivots_lanes", kernel)
        expected = exact_rank(grid)
        assert expected.rank == size - 1 and len(calls) >= 2
        drop_at[0], calls[:] = len(calls), []
        assert exact_rank(grid) == expected
        assert len(calls) == drop_at[0]

    @pytest.mark.parametrize("size", [4, 16])
    def test_a_first_prime_showing_a_lower_rank_fails_the_span_check(self, size):
        # The first prime is made to lose the lead of the last row that joined
        # its basis: the exact pass at its rank 2 then meets a third row that
        # joins, exceeds its cap, and the primes restore the rank.
        grid = subfield_sum(random.Random(size), I, size, size, 3)
        result, calls = steps(grid)
        assert result == reference_rank(grid) and calls == plan(0, False, exact_pass(3))
        with pytest.MonkeyPatch.context() as patch:
            calls = record_eliminations(patch)
            logged = rank_module._pivots_lanes

            def kernel(rows, m, count):
                leads = logged(rows, m, count)
                return leads[:-1] if len(calls) == 1 else leads

            patch.setattr(rank_module, "_pivots_lanes", kernel)
            assert exact_rank(grid) == result
        assert calls[:2] == plan(0, False, exact_pass(2, EXCEEDED)) and len(calls) > 2

    def test_wide_high_rank_matches_reference(self):
        rng = random.Random(41)
        for rows, cols in ((3, 7), (7, 3), (6, 6)):
            grid = [[random_scalar(rng) for _ in range(cols)] for _ in range(rows)]
            grid.append([a + b for a, b in zip(grid[0], grid[-1])])
            assert exact_rank(grid) == reference_rank(grid)


# The fields of the plan's first two primes: the first below 2^bits_per_digit, then the first below 2^81.
PLAN_FIELDS = [_field(0, _DIGIT_LIMIT), _field(0)]
PLAN_START = [p for p, _, _ in PLAN_FIELDS]


def crt(pairs: list[tuple[int, int]]) -> int:
    """The t in [0, product of the p) with t = r (mod p) for every (p, r) of ``pairs``."""
    t, modulus = 0, 1
    for p, r in pairs:
        t += modulus * ((r - t) * pow(modulus, -1, p) % p)
        modulus *= p
    return t


def cut_ranks(state: PureState, sigmas) -> list[RankResult]:
    return [exact_rank(coefficient_matrix(state, sigma)) for sigma in sigmas]


def short_root(p: int, t: int) -> tuple[int, int]:
    """(a, b) with a = b*t (mod p) and |a|, |b| < sqrt(p), by Euclid stopped half-way.

    Each remainder r_k of p and t satisfies r_k = t_k * t (mod p).
    """
    r0, r1, t0, t1 = p, t, 0, 1
    while r1 * r1 >= p:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return r1, t1


def plan_zero(ring: str, first: int) -> Scalar:
    """A short nonzero element of ``ring`` that maps to 0 modulo each of the plan's ``first`` primes."""
    fields = PLAN_FIELDS[:first]
    modulus = math.prod(p for p, _, _ in fields)
    if ring == "Z":
        return Scalar(modulus)
    unit = {"Z[i]": I, "Z[sqrt2]": SQRT2, "Z[sqrt-2]": I * SQRT2}[ring]
    images = [(p, {"Z[i]": i_p, "Z[sqrt2]": s_p, "Z[sqrt-2]": i_p * s_p % p}[ring]) for p, i_p, s_p in fields]
    a, b = short_root(modulus, crt(images))
    return a - b * unit


def residue(x: Scalar, field: tuple[int, int, int]) -> int:
    """The image of ``x`` in ``field`` = (p, i_p, s_p)."""
    p, i_p, s_p = field
    a, b, c, d, den = x.coords
    return (a + b * i_p + (c + d * i_p) * s_p) * pow(den, -1, p) % p


# LLL-short elements of degree four in the kernel of the first embedding of
# each size: the first rows of sympy's LLL-reduced kernel bases.
DEGREE_FOUR_ZERO = {
    _DIGIT_LIMIT: scalar_parse("-125+126i+(-55-3i)*s2"),
    _PRIME_LIMIT: scalar_parse("-132811+859460i+(-672763+338385i)*s2"),
}


RINGS = ["Z", "Z[i]", "Z[sqrt2]", "Z[sqrt-2]"]


class TestDegreeRule:
    """Entries that vanish modulo the plan's first primes yet are as short as their ring allows.

    Each matrix here has a nonzero minor that vanishes modulo the plan's
    first prime (one digit), or modulo its first two (that one and the first
    81-bit prime).  The stop rule needs modulus^2 > P^d with d the degree of
    the entries' field; a rule that undercounts d, or P, stops after those
    primes with too small a rank.
    """

    def test_short_kernel_element_of_degree_four(self):
        # e has 9 bits, so P = e^2 and e^8 (69 bits) > p^2 (60 bits) needs a
        # second prime, where the d = 2 rule (or B in place of B^2, e^4 of 35
        # bits) stops after one.
        self.degree_four(DEGREE_FOUR_ZERO[_DIGIT_LIMIT], 1)

    def test_short_kernel_element_of_degree_four_times_the_first_prime(self):
        # The 81-bit kernel element times the one-digit prime, so that both
        # of the plan's first primes see 0: e has 52 bits, and e^8 (413 bits)
        # > (p1 * p2)^2 (222 bits) needs a third prime, where the d = 2 rule
        # (e^4, 207 bits) stops after two.
        self.degree_four(DEGREE_FOUR_ZERO[_PRIME_LIMIT] * PLAN_START[0], 2)

    @staticmethod
    def degree_four(x: Scalar, first: int) -> None:
        # Degree four keeps the prime route: no exact pass runs.
        e = coord_bound(x.coords[:4])
        assert all(residue(x, field) == 0 for field in PLAN_FIELDS[:first])
        assert e ** 8 > math.prod(PLAN_START[:first]) ** 2 > e ** 4
        expected = plan(0, True) if first == 1 else plan(2, False)
        assert steps([[x]]) == (RankResult(1, (0,)), expected)
        assert steps(coefficient_matrix(PureState(1, {1: x}), IDENTITY)) == (RankResult(1, (1,)), expected)

    @staticmethod
    def subring_entry(ring: str, first: int) -> None:
        # Zero modulo the first prime alone, a one-digit top-up closes the
        # rule; modulo the first two, the exact pass runs after the first at
        # the rank it showed, the row it showed as zero joins past that cap,
        # and the primes go on.
        x = plan_zero(ring, first)
        assert x and all(residue(x, field) == 0 for field in PLAN_FIELDS[:first])
        bits = math.prod(PLAN_START[:first]).bit_length()
        assert max(abs(v) for v in x.coords).bit_length() <= (bits if ring == "Z" else (bits + 1) // 2)

        def expected(cap: int) -> list:
            return plan(0, True) if first == 1 else plan(1, True, exact_pass(cap, EXCEEDED))

        assert steps([[x]]) == (RankResult(1, (0,)), expected(0))
        assert steps([[x, ZERO], [ZERO, Scalar(1)]]) == (RankResult(2, (0, 1)), expected(1))
        assert steps(coefficient_matrix(PureState(1, {0: x}), IDENTITY)) == (RankResult(1, (0,)), expected(0))

    @pytest.mark.parametrize("ring", RINGS)
    def test_entry_in_each_subring(self, ring):
        self.subring_entry(ring, 1)

    @pytest.mark.parametrize("ring", RINGS)
    def test_entry_in_each_subring_zero_modulo_the_first_two_primes(self, ring):
        self.subring_entry(ring, 2)

    def test_degree_reads_every_entry(self):
        x = plan_zero("Z[i]", 1)
        assert exact_rank([[ZERO], [x]]) == RankResult(1, (0,))
        assert exact_rank(scalar_grid([[1, 0], [0, x]])) == RankResult(2, (0, 1))
        assert cut_ranks(PureState(2, {0: 1, 3: x}), [IDENTITY]) == [RankResult(2, (0, 1))]

    def test_square_sums_follow_the_cut(self):
        # Amplitudes 0..3 fill one row of the identity cut but the 2 x 2 block
        # [[s, 1], [c, s]] of the cut 1:3, whose determinant s^2 - c is the
        # plan's first prime p1.  Summed along the identity cut's rows and
        # columns, the e^2 sums bound that block's minors by about 2*p1, and
        # the rule would stop after one prime.
        p = PLAN_START[0]
        s = math.isqrt(p) + 1
        c = s * s - p
        state = PureState(4, {0: s, 1: 1, 2: c, 3: s})
        sigmas = [IDENTITY, QubitPermutation([(1, 3)])]
        results = cut_ranks(state, sigmas)
        assert [r.rank for r in results] == [1, 2]
        for sigma, result in zip(sigmas, results):
            assert result == reference_rank(coefficient_matrix(state, sigma))


def _draw(kind: str, rng: random.Random) -> Scalar:
    def small() -> int:
        return rng.randint(-3, 3)

    if kind == "rational":
        return Scalar(Fraction(small(), rng.randint(1, 4)))
    if kind == "gauss":
        return Scalar(GaussRational(small(), small()))
    if kind == "sqrt2":
        return Scalar(small(), small())
    if kind == "i*sqrt2":
        return Scalar(small(), GaussRational(0, small()))
    return random_scalar(rng, 4)  # fractions, i and sqrt2 parts, mixed denominators


def dense_state_of_kind(seed: int, n: int, kind: str) -> PureState:
    """A sparse state of ``kind`` entries made dense by invertible operators of the same kind.

    Of kind "sparse" it stays sparse: at most 8 terms, so its cuts have zero
    rows and zero columns before and between their pivots.
    """
    rng = random.Random(seed)
    if kind == "sparse":
        return random_state(rng, n, rational=rng.random() < 0.5)
    indices = rng.sample(range(1 << n), min(rng.randint(1, 8), 1 << n))
    sparse = PureState(n, {index: _draw(kind, rng) for index in indices}, allow_zero=True)
    if sparse.is_zero:
        sparse = PureState(n, {indices[0]: 1})
    ops = []
    while len(ops) < n:
        op = LocalOperator([[_draw(kind, rng) for _ in range(2)] for _ in range(2)])
        if op.det():
            ops.append(op)
    return apply_local(sparse, ops)


class TestStateRoute:
    """Every cut of a state reads the scaling kept on that state: one set of lane bytes per prime."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["rational", "gauss", "sqrt2", "i*sqrt2", "mixed", "sparse"]))
    def test_equals_matrix_route_and_reference(self, n, seed, kind):
        # The grid of a cut's entries is scaled on its own: the matrix route.
        state = dense_state_of_kind(seed, n, kind)
        sigmas = enumerate_sigmas(n) if n > 1 else [IDENTITY]
        for sigma in sigmas:
            cut = coefficient_matrix(state, sigma)
            assert (cut.state, cut.n, cut.sigma) == (state, n, sigma)
            assert cut.entries == split_matrix(state, *cut_qubits(sigma, n))
            assert exact_rank(cut) == exact_rank([list(row) for row in cut.entries]) == reference_rank(cut)

    def test_zero_state(self):
        assert cut_ranks(PureState.zero(4), enumerate_sigmas(4)) == [RankResult(0, ())] * 3

    def test_signature_lays_out_no_cut(self, monkeypatch):
        state = dense_state(5, 6, field=True)[0]
        sigmas = enumerate_sigmas(6)
        expected = tuple(exact_rank(coefficient_matrix(state, sigma)).rank for sigma in sigmas)
        laid_out = []
        real = CoeffMatrix.entries
        monkeypatch.setattr(CoeffMatrix, "entries", property(lambda self: laid_out.append(1) or real.fget(self)))
        assert rank_signature(state, sigmas).ranks == expected
        assert laid_out == []

    def test_sparse_sixteen_qubit_cut_is_ranked_unlaid(self, monkeypatch):
        monkeypatch.setattr(CoeffMatrix, "entries", property(lambda self: pytest.fail("entries were laid out")))
        matrix = coefficient_matrix(ghz_state(16), QubitPermutation([(1, 9)]))
        assert exact_rank(matrix).rank == 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_engine_takes_a_state_cut(self, n):
        state = dense_state(n, n, field=True)[0]
        for sigma in enumerate_sigmas(n) if n > 1 else [IDENTITY]:
            cut = coefficient_matrix(state, sigma)
            grid = [list(row) for row in cut.entries]
            if n % 2 == 0:
                assert exact_det(cut) == exact_det(grid)
            assert numeric_rank(cut) == numeric_rank(grid)
            assert np.array_equal(to_complex_array(cut), to_complex_array(grid))

    def test_every_cut_reads_the_scaling_kept_on_its_state(self, monkeypatch):
        state = dense_state(7, 6, field=True)[0]
        assert state._scaled is None
        built, read = [], []
        real_scaled, real_rank = rank_module._Scaled, rank_module._certified_rank
        monkeypatch.setattr(rank_module, "_Scaled", lambda values: built.append(1) or real_scaled(values))
        monkeypatch.setattr(rank_module, "_certified_rank",
                            lambda scaled, *args: read.append(scaled) or real_rank(scaled, *args))
        cuts = [coefficient_matrix(state, sigma) for sigma in enumerate_sigmas(6)]
        assert [exact_rank(cut) for cut in cuts] == [reference_rank(cut) for cut in cuts]
        assert exact_det(cuts[0]) == reference_det(cuts[0])
        apply_local(state, [LocalOperator(((1, 1), (0, 1)))] * 6)
        # the cuts, the determinant and the transform read one scaling, kept on the state
        assert len(built) == 1 and len(read) == len(cuts)
        assert state._scaled is not None and all(scaled is state._scaled for scaled in read)

    def test_signature_ranks_each_cut_through_exact_rank(self, monkeypatch):
        # rank_signature calls classify.exact_rank once per cut, so a fault
        # put there shows in every signature.
        state = dense_state(2, 6, field=True)[0]
        sigmas = enumerate_sigmas(6)
        expected = rank_signature(state, sigmas).ranks
        seen = []
        real = classify_module.exact_rank

        def off_by_one(cut):
            seen.append(cut)
            return RankResult(real(cut).rank + 1, ())

        monkeypatch.setattr(classify_module, "exact_rank", off_by_one)
        assert rank_signature(state, sigmas).ranks == tuple(r + 1 for r in expected)
        assert [cut.sigma for cut in seen] == sigmas
        assert state._scaled is not None and all(cut.state is state for cut in seen)


class TestNonzeroBlock:
    """A matrix is ranked from the block of its nonzero rows and nonzero columns.

    Zero rows and zero columns change neither the rank nor which nonzero
    columns are pivots; the block's pivots map back to the matrix's columns.
    """

    def test_zero_rows_and_columns_before_and_between_pivots(self):
        grid = scalar_grid([[0, 0, 1], [0, 0, 0], [0, 2, 0]])
        assert exact_rank(grid) == reference_rank(grid) == RankResult(2, (1, 2))
        grid = scalar_grid([[0, 0, 0, 0], [0, 3, 0, 3], [0, 0, 0, 0], [0, 1, 0, 1]])
        assert exact_rank(grid) == reference_rank(grid) == RankResult(1, (1,))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_padded_grid_equals_reference(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        grid = [[random_scalar(rng) if rng.random() < 0.6 else ZERO for _ in range(cols)] for _ in range(rows)]
        if rows > 1:  # a dependent row, so the stop rule needs its bound
            grid.append([a + b for a, b in zip(grid[0], grid[-1])])
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(0, len(grid[0]))
            for row in grid:
                row.insert(k, ZERO)
        for _ in range(rng.randint(1, 4)):
            grid.insert(rng.randint(0, len(grid)), [ZERO] * len(grid[0]))
        assert exact_rank(grid) == reference_rank(grid)

    @pytest.mark.parametrize("family", ["ghz", "w"])
    def test_every_sixteen_qubit_cut_from_a_scaling_of_terms_plus_one(self, family):
        state = ghz_state(16) if family == "ghz" else dicke_state(16, 1)
        ranks = cut_ranks(state, enumerate_sigmas(16))
        assert len(ranks) == 6435 and {rank for rank, _ in ranks} == {2}
        kept = state._scaled._bytes
        assert {len(cells) for cells in kept.values()} == {len(state._scaled.squares())} == {len(state.amps) + 1}


class TestBlockLayout:
    """A cut's block is one row-major list of slots, laid out by the route its support selects.

    With every index present, the block is the whole matrix, and slot k is
    index k, because a state keeps its amplitudes in index order; a cut
    with an empty cell is laid out from the positions of its amplitudes.
    """

    @pytest.mark.parametrize("n", range(1, 8))
    def test_full_support_in_any_insertion_order(self, n):
        # A slot is a place in the amplitude map's order.  It is index k only
        # because a state sorts its map; without that, a state made from a
        # shuffled map would rank the wrong matrix.
        rng = random.Random(n)
        state = dense_state(n, n, field=n % 2 == 1)[0]
        assert len(state.amps) == 1 << n
        ordered = PureState(n, dict(sorted(state.amps.items())))
        indices = list(ordered.amps)
        rng.shuffle(indices)
        shuffled = PureState(n, {index: ordered.amps[index] for index in indices})
        sigmas = enumerate_sigmas(n)
        results = [cut_ranks(shuffled, sigmas), cut_ranks(ordered, sigmas),
                   [exact_rank(coefficient_matrix(shuffled, sigma)) for sigma in sigmas]]
        expected = [reference_rank(coefficient_matrix(ordered, sigma)) for sigma in sigmas]
        assert results == [expected] * 3

    @pytest.mark.parametrize("n", range(2, 10))
    def test_full_support_layout_equals_the_positions_route(self, n):
        # The full-support route doubles relabeled bits; block_slots of the
        # amplitudes' positions is its reference, on every cut.
        state = PureState(n, {index: index + 1 for index in range(1 << n)})
        for sigma in enumerate_sigmas(n):
            cut = coefficient_matrix(state, sigma)
            slots, cols = cut.block()
            assert (slots, list(cols)) == block_slots(cut.positions(), cut.cols)

    def test_only_a_cut_with_an_empty_cell_reads_positions(self, monkeypatch):
        dense = dense_state(3, 6, field=True)[0]
        assert len(dense.amps) == 1 << 6
        # One empty cell is enough to take the positions route.
        holed = PureState(6, {index: value for index, value in dense.amps.items() if index != 37})
        sigma = QubitPermutation([(1, 4), (2, 6)])
        expected = [reference_rank(coefficient_matrix(state, sigma)) for state in (dense, holed)]
        real = CoeffMatrix.positions
        monkeypatch.setattr(CoeffMatrix, "positions", lambda self: pytest.fail("positions() was called"))
        assert exact_rank(coefficient_matrix(dense, sigma)) == expected[0]
        called = []
        monkeypatch.setattr(CoeffMatrix, "positions", lambda self: called.append(self.sigma) or real(self))
        assert exact_rank(coefficient_matrix(holed, sigma)) == expected[1]
        assert called == [sigma]


def gf2_rank(rows: list[int]) -> int:
    """The rank over GF(2) of rows given as bit masks."""
    basis: dict[int, int] = {}  # highest bit -> the basis row with that highest bit
    for x in rows:
        while x and x.bit_length() in basis:
            x ^= basis[x.bit_length()]
        if x:
            basis[x.bit_length()] = x
    return len(basis)


class TestClosedForms:
    """Every cut of two state families against a rank computed without the engine."""

    @pytest.mark.parametrize("seed", range(30))
    def test_graph_state(self, seed):
        # |G> has amplitude (-1)^(edges inside x) at every x, and its cut A | B
        # has rank 2^r, r the GF(2) rank of the adjacency block Gamma[A, B]
        # (Hein, Eisert and Briegel, PRA 69, 062311, 2004).  Full support, so
        # every cut takes the whole-matrix layout.
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        edges = {(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if rng.random() < 0.5}
        state = PureState(n, {x: (-1) ** sum(x >> n - a & x >> n - b & 1 for a, b in edges)
                              for x in range(1 << n)})
        sigmas = enumerate_sigmas(n)
        expected = []
        for sigma in sigmas:
            rows, cols = cut_qubits(sigma, n)
            block = [sum(1 << b for b in cols if (min(a, b), max(a, b)) in edges) for a in rows]
            expected.append(2 ** gf2_rank(block))
        assert [result.rank for result in cut_ranks(state, sigmas)] == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_symmetric_state(self, seed):
        # A symmetric state with c_w at every index of weight w has, on a cut
        # k | n - k, the rank of the Hankel matrix H[i][j] = c_(i+j), of size
        # (k+1) x (n-k+1).  One operator on every qubit keeps the state
        # symmetric; c_w is then read at index 2^w - 1.
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        weights = [random_gauss_int(rng) if rng.random() < 0.7 else ZERO for _ in range(n + 1)]
        weights[rng.randint(0, n)] = random_gauss_int(rng, nonzero=True)
        raw = PureState(n, {x: weights[x.bit_count()] for x in range(1 << n)})
        while True:
            op = LocalOperator([[random_gauss_int(rng) for _ in range(2)] for _ in range(2)])
            if op.det():
                break
        sigmas = enumerate_sigmas(n)
        for state in (raw, apply_local(raw, [op] * n)):
            c = [state.amplitude((1 << w) - 1) for w in range(n + 1)]
            hankel = [[c[i + j] for j in range(n - n // 2 + 1)] for i in range(n // 2 + 1)]
            expected = reference_rank(hankel).rank
            assert [result.rank for result in cut_ranks(state, sigmas)] == [expected] * len(sigmas)


def sum_of_products(rng: random.Random, size: int, terms: int) -> list[list[Scalar]]:
    """A size x size grid summing ``terms`` outer products of small Gaussian-integer vectors."""
    us = [[random_gauss_int(rng) for _ in range(size)] for _ in range(terms)]
    vs = [[random_gauss_int(rng) for _ in range(size)] for _ in range(terms)]
    return [[sum((u[i] * v[j] for u, v in zip(us, vs)), ZERO) for j in range(size)] for i in range(size)]


# The exact pass's verdicts: the cut closed on it, or a row past its cap joined and the primes went on.
CLOSED, EXCEEDED = "closed", "exceeded its cap"


def exact_pass(cap: int, verdict: str = CLOSED) -> str:
    """What an exact pass at ``cap`` logs in place of a modulus."""
    return f"pass at {cap}: {verdict}"


def record_eliminations(monkeypatch: pytest.MonkeyPatch) -> list:
    """Patch the kernel to log the modulus of each elimination it runs, and the exact pass to log its cap and verdict."""
    calls: list = []
    real, real_pass = rank_module._pivots_lanes, rank_module._exact_pass

    def logged(rows, m, count):
        calls.append(m)
        return real(rows, m, count)

    def exact(scaled, slots, ncols, cap):
        leads = real_pass(scaled, slots, ncols, cap)
        calls.append(exact_pass(cap, EXCEEDED if leads is None else CLOSED))
        return leads

    monkeypatch.setattr(rank_module, "_pivots_lanes", logged)
    monkeypatch.setattr(rank_module, "_exact_pass", exact)
    return calls


def block_width(matrix) -> int:
    """The number of nonzero columns of ``matrix``."""
    return sum(map(any, zip(*getattr(matrix, "entries", matrix))))


def plan(bigs: int, top_up: bool, checked: str | None = None) -> list:
    """The prime plan's steps: the first one-digit prime, the exact pass after it if it ran (``checked``),
    ``bigs`` 81-bit primes, then one more one-digit prime or none."""
    first = [_field(0, _DIGIT_LIMIT)[0]] + [checked] * (checked is not None)
    return first + [_field(k)[0] for k in range(bigs)] + [_field(1, _DIGIT_LIMIT)[0]] * top_up


def sizes(calls: list) -> dict[str, int]:
    """The number of steps of each kind: eliminations by modulus size, and exact passes by cap and verdict."""
    return dict(Counter(c if isinstance(c, str) else "one-digit" if c < _DIGIT_LIMIT else "81-bit" for c in calls))


class TestPrimeGroups:
    """Every prime is eliminated on its own, in the plan's order, by the one kernel, whatever the block's width.

    So the rank, the pivots and the primes spent are those of one prime at a
    time, on blocks of one column as on blocks of hundreds.  Without a prime
    that shows too low a rank, the plan is the exact pass at the state's
    start, when its last cut closed on a pass; then, if that pass exceeded
    its cap or did not run, the first one-digit prime, at most one exact
    pass at that prime's rank where the route rule takes it, 81-bit primes,
    and last one more one-digit prime when it closes the stop rule where an
    81-bit one would be needed.  A pass that closes ends the cut.
    """

    @staticmethod
    def one_prime_at_a_time(matrix) -> RankResult:
        """``exact_rank(matrix)``, checked to eliminate the plan's primes once each, in order.

        A state cut's plan starts with a pass at the rank its state's last
        cut closed at on a pass, and none when that cut closed on primes;
        this cut leaves its own rank as the start only if a pass closed it.
        """
        state = matrix.state if isinstance(matrix, CoeffMatrix) else None
        start = None if state is None or state._scaled is None else state._scaled.start
        with pytest.MonkeyPatch.context() as patch:
            calls = record_eliminations(patch)
            result = exact_rank(matrix)
        opening = [] if start is None else calls[:1]  # the pass at the start
        assert opening in ([], [exact_pass(start)], [exact_pass(start, EXCEEDED)])
        if opening == [exact_pass(start)]:
            assert calls == opening and result.rank <= start
        else:
            moduli = [c for c in calls if not isinstance(c, str)]
            rest = calls[len(opening):]
            checked = rest[1] if len(rest) > 1 and isinstance(rest[1], str) else None
            top_up = len(moduli) > 1 and moduli[-1] < _DIGIT_LIMIT
            assert calls == opening + plan(len(moduli) - 1 - top_up, top_up, checked)
        closed = isinstance(calls[-1], str) and calls[-1].endswith(CLOSED)
        if state is not None:
            assert state._scaled.start == (result.rank if closed else None)
        return result

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), field=st.booleans())
    def test_equals_one_prime_at_a_time_on_dense_states(self, n, seed, field):
        state = dense_state(seed, n, field)[0]
        for sigma in enumerate_sigmas(n):
            matrix = coefficient_matrix(state, sigma)
            assert self.one_prime_at_a_time(matrix) == reference_rank(matrix)

    @pytest.mark.parametrize("terms", [29, 30, 31])
    def test_equals_one_prime_at_a_time_near_full_rank(self, terms):
        grid = sum_of_products(random.Random(terms), 32, terms)
        result = self.one_prime_at_a_time(grid)
        assert result == reference_rank(grid)
        assert result.rank == terms

    @pytest.mark.parametrize("table", classify_module.TABLE_IDS)
    def test_equals_one_prime_at_a_time_on_table_families(self, table):
        # Three fixed points from each nonempty cell, every cut of the table:
        # the blocks are 1 x 1 up to 4 x 4.
        sigmas, groups = classify_module._TABLES[table]
        rng = random.Random(7)
        widths = set()
        for _, names, build, cells in groups:
            for region, signature in cells:
                draw = classify_module._REGIONS[region][1]
                for _ in range(3 if draw else 0):
                    state = build(dict(zip(names, draw(rng))))
                    ranks = []
                    for sigma in sigmas:
                        matrix = coefficient_matrix(state, sigma)
                        widths.add(block_width(matrix))
                        result = self.one_prime_at_a_time(matrix)
                        assert result == reference_rank(matrix)
                        ranks.append(result.rank)
                    assert tuple(ranks) == signature
        assert max(widths) <= 4

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("family", ["ghz", "w"])
    def test_equals_one_prime_at_a_time_on_every_ghz_and_w_cut(self, family, n):
        # GHZ blocks are 2 x 2; W blocks have n // 2 + 1 rows.
        state = ghz_state(n) if family == "ghz" else dicke_state(n, 1)
        for sigma in enumerate_sigmas(n):
            matrix = coefficient_matrix(state, sigma)
            assert self.one_prime_at_a_time(matrix) == reference_rank(matrix)

    @staticmethod
    def dense_dicke_eliminations(monkeypatch, n: int, ell: int) -> dict[int, int]:
        """Steps by kind in the signature of |l, n> under one invertible operator on every qubit.

        The operator keeps the state symmetric, so each n/2 | n/2 cut keeps
        rank r = min(l, n - l, n/2) + 1, which is below the cut's width.  The
        first cut must take the one-digit prime and the exact pass at r, and
        every later cut the pass at its state's start r alone.
        """
        op = LocalOperator([[scalar_parse("1+i"), 2], [1, scalar_parse("-1+2i")]])
        state = apply_local(dicke_state(n, ell), [op] * n)
        assert len(state.amps) == 1 << n
        calls = record_eliminations(monkeypatch)
        ranks = rank_signature(state, enumerate_sigmas(n)).ranks
        r = min(ell, n - ell, n // 2) + 1
        assert len(ranks) == math.comb(n, n // 2) // 2 and set(ranks) == {r}
        assert calls == plan(0, False, exact_pass(r)) + [exact_pass(r)] * (len(ranks) - 1)
        return sizes(calls)

    def test_dense_eight_qubit_dicke_signature(self, monkeypatch):
        # One one-digit prime, then the exact pass on every cut (the prime and
        # a span check on every cut before the start rule, the one-digit
        # prime and one 81-bit prime before the span route, one 81-bit prime
        # alone before the plan, and two 62-bit ones before that).
        assert self.dense_dicke_eliminations(monkeypatch, 8, 2) == {"one-digit": 1, exact_pass(3): 35}

    def test_dense_ten_qubit_dicke_signature(self, monkeypatch):
        # One one-digit prime, then the exact pass on every cut (the prime and
        # a span check on every cut before the start rule, the one-digit
        # prime, one 81-bit prime and a one-digit top-up before the span
        # route, two 81-bit primes before the plan, three 62-bit ones before that).
        assert self.dense_dicke_eliminations(monkeypatch, 10, 3) == {"one-digit": 1, exact_pass(4): 126}

    @staticmethod
    def rank_three_eliminations(monkeypatch, state: PureState) -> dict[int, int]:
        """Steps by kind in the signature of a dense, non-symmetric 8-qubit state of rank 3 on every cut."""
        assert len(state.amps) == 256
        calls = record_eliminations(monkeypatch)
        assert rank_signature(state, enumerate_sigmas(8)).ranks == (3,) * 35
        assert calls == plan(0, False, exact_pass(3)) + [exact_pass(3)] * 34
        return sizes(calls)

    def test_dense_eight_qubit_dicke_signature_one_operator_per_qubit(self, monkeypatch):
        # [[1+i, q], [1, -1+2i]] on qubit q: the state is no longer symmetric,
        # and its first cut closes on the one-digit prime and the exact pass,
        # each later one on the pass at its state's start (before the start
        # rule, each on the prime and a span check; before the span route, on
        # the one-digit prime and one 81-bit prime; before the plan, on two
        # 81-bit primes), so a rule that spends one step more, or a pass that
        # exceeds its cap, on any cut fails.
        state = start_rule_state("dense dicke")
        assert self.rank_three_eliminations(monkeypatch, state) == {"one-digit": 1, exact_pass(3): 35}

    def test_dense_eight_qubit_sum_of_three_products_signature(self, monkeypatch):
        state = start_rule_state("product sum")
        assert self.rank_three_eliminations(monkeypatch, state) == {"one-digit": 1, exact_pass(3): 35}


SUBFIELD_UNITS = {"Q": ZERO, "Q(i)": I, "Q(sqrt2)": SQRT2, "Q(i*sqrt2)": I * SQRT2}


def subfield_sum(rng: random.Random, unit: Scalar, nrows: int, ncols: int, terms: int) -> list[list[Scalar]]:
    """An nrows x ncols grid summing ``terms`` outer products of vectors a + b*unit, a and b of 16 bits."""
    def vector(size: int) -> list[Scalar]:
        return [Scalar(rng.randint(-65536, 65536)) + rng.randint(-65536, 65536) * unit for _ in range(size)]

    us, vs = [vector(nrows) for _ in range(terms)], [vector(ncols) for _ in range(terms)]
    return [[sum((u[i] * v[j] for u, v in zip(us, vs)), ZERO) for j in range(ncols)] for i in range(nrows)]


def steps(matrix) -> tuple[RankResult, list]:
    """``exact_rank(matrix)`` and the steps it took, as ``record_eliminations`` logs them."""
    with pytest.MonkeyPatch.context() as patch:
        calls = record_eliminations(patch)
        result = exact_rank(matrix)
    return result, calls


# Steps other than eliminations on every cut of the dense states of ``test_every_cut_up_to_ten_qubits``,
# cut after cut in enumerated order, so later cuts start at the rank their state's last pass closed at.
PASSES_UP_TO_TEN_QUBITS = {
    (9, "gauss"): {exact_pass(5): 20, exact_pass(5, EXCEEDED): 21, exact_pass(6): 63, exact_pass(6, EXCEEDED): 21},
    (10, "rational"): {},
    (10, "gauss"): {exact_pass(2): 126},
    (10, "sqrt2"): {exact_pass(2): 126},
    (10, "i*sqrt2"): {exact_pass(2): 126},
}


class TestSpanCertificate:
    """The exact pass: one fraction-free elimination in row order that finds the rank and pivots or exceeds its cap.

    A pass that closes is a span certificate it finds for itself: the rows
    that joined have a nonzero minor on their leads, and every other row
    lies in their span.  On a grid, or a state's first cut, it runs after
    the first prime at that prime's rank; a pass that exceeds its cap
    leaves the primes to go on.
    """

    @pytest.mark.parametrize("field", SUBFIELD_UNITS)
    @pytest.mark.parametrize("terms", [1, 2, 3, 5])
    def test_low_rank_sums_in_each_subfield_close_on_the_span_check(self, field, terms):
        rng = random.Random(terms)
        for nrows, ncols in ((12, 12), (7, 12), (12, 7)):
            grid = subfield_sum(rng, SUBFIELD_UNITS[field], nrows, ncols, terms)
            grid = [[x / 3 for x in row] for row in grid] if terms == 2 else grid  # a common denominator
            result, calls = steps(grid)
            assert result == reference_rank(grid) and result.rank == terms
            assert calls == plan(0, False, exact_pass(terms))

    def test_degree_four_keeps_the_prime_route(self):
        rng = random.Random(4)
        grid = subfield_sum(rng, I + SQRT2, 12, 12, 3)
        result, calls = steps(grid)
        assert result == reference_rank(grid) and result.rank == 3
        assert not any(isinstance(c, str) for c in calls) and len(calls) >= 3

    @pytest.mark.parametrize("n, kind", [(9, "gauss"), (10, "rational"), (10, "gauss"), (10, "sqrt2"), (10, "i*sqrt2")])
    def test_every_cut_up_to_ten_qubits(self, n, kind):
        state = dense_state_of_kind(7 * n, n, kind)
        steps_taken: Counter = Counter()
        for sigma in enumerate_sigmas(n):
            cut = coefficient_matrix(state, sigma)
            result, calls = steps(cut)
            assert result == reference_rank(cut)
            steps_taken.update(c for c in calls if isinstance(c, str))
        # The rational state has rank 1 on every cut, which the top-up closes.
        assert dict(steps_taken) == PASSES_UP_TO_TEN_QUBITS[n, kind]

    @pytest.mark.parametrize("outside", range(9))
    def test_a_row_outside_the_span_mod_the_first_prime_is_found(self, outside):
        # Rank 2 but for one row, whose extra part p1 * e vanishes modulo the
        # first prime: that prime shows rank 2, the pass at cap 2 must find
        # the row wherever it is, and the primes then show rank 3.
        rng = random.Random(outside)
        grid = subfield_sum(rng, I, 9, 9, 2)
        grid[outside] = [x + PLAN_START[0] * rng.randint(1, 9) for x in grid[outside]]
        result, calls = steps(grid)
        assert result == reference_rank(grid) and result.rank == 3
        assert calls[:2] == plan(0, False, exact_pass(2, EXCEEDED))

    @pytest.mark.parametrize("ring", RINGS)
    @pytest.mark.parametrize("ncols", [2, 3])
    def test_a_lead_left_of_the_first_primes_leads_is_found(self, ring, ncols):
        # Column 0 vanishes modulo the first prime but not exactly: that prime
        # puts the lead in column 1, with rank 1 as the matrix has.  The pass
        # at cap 1 takes the lowest nonzero column of the exact row as its
        # lead, so it finds the true pivot and closes the cut.
        x = plan_zero(ring, 1) * (1 << 40)
        row = [x, Scalar(1), Scalar(5)][:ncols]
        grid = [row, [2 * v for v in row], [-3 * v for v in row]]
        result, calls = steps(grid)
        assert result == reference_rank(grid) == RankResult(1, (0,))
        assert calls == plan(0, False, exact_pass(1))

    def test_lanes_hold_every_difference(self):
        # At cap 1 on rows [1, e, 0] and [e, 0, 1], the second row's v is row
        # 1 minus e times row 0, [0, -e^2, 1], which a packed int reads as 0
        # in lanes of 2 log2(e) bits: 40 bits, a byte short of the bound
        # (r+1) * r! * e^(r+1) = 2^41 at e = 2^20, and 8 bits, the bound at
        # cap 0, at e = 16.  Then the pass would close at rank 1.
        for e, width in ((1 << 20, 6), (16, 2)):
            scaled, slots, cols, _, _ = rank_module._block([[1, e, 0], [e, 0, 1]])
            assert rank_module._span_width(1, scaled.largest()) == width
            assert rank_module._exact_pass(scaled, slots, len(cols), 1) is None
            assert rank_module._exact_pass(scaled, slots, len(cols), 2) == [0, 1]
            scaled, slots, cols, _, _ = rank_module._block([[1, e, 0], [e, e * e, 0]])
            assert rank_module._exact_pass(scaled, slots, len(cols), 1) == [0]

    @pytest.mark.parametrize("rank, e", [(0, 1), (1, 3), (2, 1 << 20), (3, 12345), (6, 1 << 34), (12, 99)])
    def test_lane_width_is_the_bound_in_whole_bytes(self, rank, e):
        width = rank_module._span_width(rank, e)
        bits = ((rank + 1) * math.factorial(rank) * e ** (rank + 1)).bit_length()
        assert 8 * (width - 1) <= bits < 8 * width  # the bound and a sign bit, in as few bytes as hold them

    @pytest.mark.parametrize("terms", range(1, 7))
    def test_fraction_free_steps_divide_by_the_previous_pivot(self, terms):
        # Every step after the first divides by the previous pivot; any other
        # divisor leaves rows that are not det * (reduced echelon row), and
        # the pass then meets rows it takes as outside the span.
        for field in ("Q(i)", "Q(sqrt2)"):
            grid = subfield_sum(random.Random(10 + terms), SUBFIELD_UNITS[field], 14, 16, terms)
            result, calls = steps(grid)
            assert result == reference_rank(grid) and calls == plan(0, False, exact_pass(terms))

    @pytest.mark.parametrize("size, terms", [(16, 12), (16, 14), (32, 31)])
    def test_high_rank_keeps_the_prime_route(self, size, terms):
        # The pass's Gauss-Jordan steps grow as r^2 and its lanes with r, so
        # at high rank the route rule keeps the primes.
        grid = sum_of_products(random.Random(terms), size, terms)
        result, calls = steps(grid)
        assert result == reference_rank(grid) and result.rank == terms
        bigs = sizes(calls).get("81-bit", 0)
        assert bigs >= 2 and calls == plan(bigs, len(calls) > bigs + 1)


def per_qubit_ops(n: int) -> list[LocalOperator]:
    """[[1+i, q], [1, -1+2i]] on qubit q, of determinant -3 - q + i: a different invertible operator on each qubit."""
    return [LocalOperator([[scalar_parse("1+i"), q], [1, scalar_parse("-1+2i")]]) for q in range(1, n + 1)]


def bell_pairs(n: int, pairing: list[tuple[int, int]]) -> PureState:
    """|00> + |11> on each pair of qubits, under ``per_qubit_ops``: a cut has rank 2^(pairs it cuts)."""
    amps = {sum(1 << n - q | 1 << n - t for k, (q, t) in enumerate(pairing) if bits >> k & 1): 1
            for bits in range(1 << len(pairing))}
    return apply_local(PureState(n, amps), per_qubit_ops(n))


def start_rule_state(family: str) -> PureState:
    """A state of ``family`` for the start rule's tests, with n <= 10."""
    if family == "ghz":
        return ghz_state(10)
    if family == "w":
        return dicke_state(10, 1)
    if family == "dicke":
        return dicke_state(10, 3)
    if family == "dense dicke":
        return apply_local(dicke_state(8, 2), per_qubit_ops(8))
    if family == "graph":
        rng = random.Random(9)
        edges = {(a, b) for a in range(1, 10) for b in range(a + 1, 10) if rng.random() < 0.5}
        return PureState(9, {x: (-1) ** sum(x >> 9 - a & x >> 9 - b & 1 for a, b in edges) for x in range(1 << 9)})
    if family == "bell pairs":
        return bell_pairs(8, [(1, 2), (3, 7), (4, 5), (6, 8)])
    # Term t is the product over qubits q of (1, g_tq), g_tq a nonzero Gaussian integer.
    rng = random.Random(0)
    terms = [[random_gauss_int(rng, 3, nonzero=True) for _ in range(8)] for _ in range(3)]
    return PureState(8, {x: sum(math.prod(g for q, g in enumerate(term) if x >> 7 - q & 1) for term in terms)
                         for x in range(256)})


# The cuts, over the three orders, that start with a pass.  The sparse states' and the
# graph state's cuts close on primes alone, so none of theirs does; every cut of a dense
# state of one deficient rank does but its first in each order; the Bell pairs' ranks 1, 4
# and 16 interleave, and a full-rank cut clears the start.
STARTS = {"ghz": 0, "w": 0, "dicke": 0, "dense dicke": 3 * 34, "graph": 0, "bell pairs": 79, "product sum": 3 * 34}


def fresh(state: PureState) -> PureState:
    """A copy of ``state`` that has no scaling yet, so its first cut has no start."""
    return PureState(state.n, dict(state.amps))


class TestStartRule:
    """A state's cut starts with the exact pass at the rank its last cut closed at on a pass.

    The pass is exact at any cap, so the start changes only which steps a
    cut takes: a cut above the start falls back to the primes, a cut below
    it closes at wider lanes, and a cut that closes on primes clears it.
    """

    @pytest.mark.parametrize("family", STARTS)
    def test_every_cut_in_any_order(self, family):
        state = start_rule_state(family)
        sigmas = enumerate_sigmas(state.n)
        expected = {sigma: reference_rank(coefficient_matrix(state, sigma)) for sigma in sigmas}
        shuffled = list(sigmas)
        random.Random(family).shuffle(shuffled)
        starts = 0
        for order in (sigmas, sigmas[::-1], shuffled):
            copy = fresh(state)
            for sigma in order:
                result, calls = steps(coefficient_matrix(copy, sigma))
                assert result == expected[sigma]
                starts += isinstance(calls[0], str)
        assert starts == STARTS[family]

    @pytest.mark.parametrize("family", ["dense dicke", "bell pairs", "product sum"])
    def test_a_cut_above_the_start_falls_back_to_the_primes(self, family):
        state = start_rule_state(family)
        for sigma in enumerate_sigmas(state.n):
            result, calls = steps(coefficient_matrix(fresh(state), sigma))
            for start in range(max(result.rank - 2, 0), result.rank):
                copy = fresh(state)
                rank_module._scaling(copy).start = start
                assert steps(coefficient_matrix(copy, sigma)) == (result, [exact_pass(start, EXCEEDED)] + calls)

    @pytest.mark.parametrize("family", ["dense dicke", "bell pairs", "product sum", "graph"])
    def test_a_cut_below_the_start_closes_at_the_wider_lanes(self, family):
        state = start_rule_state(family)
        for sigma in enumerate_sigmas(state.n):
            cut = coefficient_matrix(state, sigma)
            expected = reference_rank(cut)
            for start in {expected.rank + 1, expected.rank + 3, min(cut.rows, cut.cols)} - {expected.rank}:
                copy = fresh(state)
                scaled = rank_module._scaling(copy)
                scaled.start = start
                assert steps(coefficient_matrix(copy, sigma)) == (expected, [exact_pass(start)])
                assert scaled.start == expected.rank
                assert (0, rank_module._span_width(start, scaled.largest())) in scaled._bytes

    def test_a_cut_closed_on_primes_clears_the_start(self):
        # A rank-4 cut closes on the pass after the first prime, a full-rank
        # cut then exceeds that start and closes on the first prime, and the
        # next rank-4 cut starts from the first prime again.
        state = fresh(start_rule_state("bell pairs"))
        sigmas = enumerate_sigmas(8)
        ranks = [reference_rank(coefficient_matrix(state, sigma)).rank for sigma in sigmas]
        four, full = [sigmas[k] for k, r in enumerate(ranks) if r == 4][:2], sigmas[ranks.index(16)]
        scaled = rank_module._scaling(state)
        assert steps(coefficient_matrix(state, four[0]))[1] == plan(0, False, exact_pass(4)) and scaled.start == 4
        assert steps(coefficient_matrix(state, full))[1] == [exact_pass(4, EXCEEDED)] + plan(0, False)
        assert scaled.start is None
        assert steps(coefficient_matrix(state, four[1]))[1] == plan(0, False, exact_pass(4)) and scaled.start == 4

    def test_a_grid_never_reads_a_start(self):
        state = fresh(start_rule_state("dense dicke"))
        cuts = [coefficient_matrix(state, sigma) for sigma in enumerate_sigmas(8)[:2]]
        assert [steps(cut)[1] for cut in cuts] == [plan(0, False, exact_pass(3)), [exact_pass(3)]]
        grid = [list(row) for row in cuts[1].entries]
        # The grid's entries are the cut's, yet it is scaled on its own, with no start, on every call.
        assert steps(grid) == steps(grid) == (exact_rank(cuts[1]), plan(0, False, exact_pass(3)))

    def test_degree_four_never_starts_a_pass(self):
        ops = [LocalOperator([[I + SQRT2, q], [1, scalar_parse("-1+2i")]]) for q in range(1, 9)]
        state = apply_local(dicke_state(8, 2), ops)
        assert rank_module._scaling(state).planes == (0, 1, 2, 3)
        for sigma in enumerate_sigmas(8):
            result, calls = steps(coefficient_matrix(state, sigma))
            assert result.rank == 3 and not any(isinstance(c, str) for c in calls)
            assert state._scaled.start is None


def list_pivots(rows: list[list[int]], m: int) -> list[int]:
    """Leads of residue rows mod m, in the order they joined: the module docstring's elimination, on lists."""
    basis: list[tuple[int, int, list[int]]] = []  # (lead column, lead's inverse mod m, row)
    for row in rows:
        for lead, inv, b in basis:
            f = row[lead] * inv % m
            if f:
                row = [(x - f * y) % m for x, y in zip(row, b)]
        for lead, x in enumerate(row):
            if x:
                basis.append((lead, pow(x, -1, m), row))
                break
        if len(basis) == len(row):
            break
    return [lead for lead, _, _ in basis]


def pack(rows: list[list[int]], m: int) -> list[int]:
    """Residue rows mod m packed as lanes of ``_lanes(m, columns)``, column 0 lowest."""
    width = rank_module._lanes(m, len(rows[0]))[0]
    return [int.from_bytes(b"".join(x.to_bytes(width, "little") for x in row), "little") for row in rows]


# Besides the plan's first primes of each size (30 and 81 bits), two small
# primes and a 62-bit one, 2^62 - 87: each lane width follows L = m.bit_length().
LANE_MODULI = [17, 97, _field(0, _DIGIT_LIMIT)[0], (1 << 62) - 87, _field(0)[0]]
# Composite moduli, each with the factor its non-unit lead holds: products of
# the first two primes = 1 (mod 8) below 2^30, 2^62 and 2^81.
COMPOSITES = {
    15: 3,
    _field(0, _DIGIT_LIMIT)[0] * _field(1, _DIGIT_LIMIT)[0]: _field(0, _DIGIT_LIMIT)[0],
    ((1 << 62) - 87) * ((1 << 62) - 143): (1 << 62) - 87,
    _field(0)[0] * _field(1)[0]: _field(0)[0],
}


class TestLanes:
    """``_pivots_lanes`` against the list elimination ``list_pivots``, and the exact reduction of packed lanes."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), m=st.sampled_from(LANE_MODULI), nrows=st.integers(1, 20), ncols=st.integers(1, 40))
    def test_equals_list_kernel(self, data, m, nrows, ncols):
        # Every width from one column up.  A sum of ``terms`` products (low
        # rank when few), then zero rows and lanes of m - 1 written over it.
        residue = st.integers(0, m - 1)
        terms = data.draw(st.integers(0, min(nrows, ncols)))
        us = data.draw(st.lists(st.lists(residue, min_size=terms, max_size=terms), min_size=nrows, max_size=nrows))
        vs = data.draw(st.lists(st.lists(residue, min_size=ncols, max_size=ncols), min_size=terms, max_size=terms))
        rows = [[sum(u[t] * vs[t][j] for t in range(terms)) % m for j in range(ncols)] for u in us]
        for i in data.draw(st.lists(st.integers(0, nrows - 1), max_size=3)):
            rows[i] = [0] * ncols
        for i, j in data.draw(st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)), max_size=30)):
            rows[i][j] = m - 1
        assert rank_module._pivots_lanes(pack(rows, m), m, ncols) == list_pivots(rows, m)

    @pytest.mark.parametrize("ncols", [126, 127, 254, 255, 256])
    @pytest.mark.parametrize("m", LANE_MODULI)
    def test_wide_blocks_across_the_lane_steps(self, m, ncols):
        # (count + 1).bit_length() steps at 127 and 255 columns.  Modulo 17,
        # square blocks of full rank but for one row: each row is reduced
        # against up to ncols - 1 basis rows before one exact reduction.
        rng = random.Random(m * 1000 + ncols)
        nrows = ncols if m == 17 else 12
        rows = [[rng.choice([rng.randrange(m), m - 1]) for _ in range(ncols)] for _ in range(nrows)]
        rows[-1] = [(a + 2 * b) % m for a, b in zip(rows[0], rows[1])]
        expected = list_pivots(rows, m)
        assert rank_module._pivots_lanes(pack(rows, m), m, ncols) == expected
        assert len(expected) < nrows

    @pytest.mark.parametrize("ncols", [16, 40])
    @pytest.mark.parametrize("m", LANE_MODULI)
    def test_a_basis_lead_in_every_lane(self, m, ncols):
        # Echelon row i has its lead in lane ncols-1-i, the top lane first.
        # Before it comes a combination of the echelon rows so far, which
        # vanishes only if the factor read at every lead above is exact.
        rng = random.Random(m * 100 + ncols)
        echelon: list[list[int]] = []
        rows = []
        for lead in reversed(range(ncols)):
            if echelon:
                coefs = [rng.randrange(1, m) for _ in echelon]
                rows.append([sum(c * row[j] for c, row in zip(coefs, echelon)) % m for j in range(ncols)])
            echelon.append([0] * lead + [rng.randrange(1, m) for _ in range(ncols - lead)])
            rows.append(echelon[-1])
        # Row 2i is echelon row i, with its lead in lane ncols-1-i; the rows between depend on those before.
        expected = list(range(ncols - 1, -1, -1))
        assert list_pivots(rows, m) == expected
        assert rank_module._pivots_lanes(pack(rows, m), m, ncols) == expected

    @pytest.mark.parametrize("m", list(COMPOSITES))
    def test_composite_modulus_with_a_non_unit_lead_raises(self, m):
        factor = COMPOSITES[m]
        for ncols in (9, 2):
            rows = [[0, factor] + [1] * (ncols - 2), [1] * ncols]
            with pytest.raises(ValueError):
                list_pivots(rows, m)
            with pytest.raises(ValueError):
                rank_module._pivots_lanes(pack(rows, m), m, ncols)

    @pytest.mark.parametrize("count", [*range(1, 65), 126, 127, 255, 256])
    @pytest.mark.parametrize("m", LANE_MODULI)
    def test_lanes_reduce_exactly(self, m, count):
        lanes = rank_module._lanes(m, count)
        values = [0, m - 1, m, 2 * m - 1, 5 * m, (count + 1) * m * m - 1, m * m, (count + 1) * m * (m - 1)]
        values = (values * count)[:count]
        width = lanes[0]
        x = int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")
        reduced = rank_module._reduce_lanes(x, m, lanes)
        assert reduced.to_bytes(width * count, "little") == b"".join((v % m).to_bytes(width, "little") for v in values)

    @pytest.mark.parametrize("count", [1, 2, 3, 16, 31, 62, 63, 126, 127, 255, 256])
    @pytest.mark.parametrize("m", LANE_MODULI)
    def test_lane_constants_follow_the_bounds(self, m, count):
        width, low, tmask, mu, s, qmask, g, add, ones = rank_module._lanes(m, count)
        size, e = m.bit_length(), (count + 1).bit_length()
        # A lane x < (count+1)*m^2 <= 2^(2L+e) has a high part x >> (L-2)
        # below 2^(L+e+2), and mu <= 2^(L+e+2), so products stay below 2^(2L+2e+4).
        assert (count + 1) * m * m <= 1 << 2 * size + e
        assert low == size - 2 and s == size + e + 3 and g == size + 1
        assert mu == (1 << 2 * size + e + 1) // m <= 1 << size + e + 2
        assert 8 * width - 8 < 2 * size + 2 * e + 4 <= 8 * width
        if m == _field(0)[0] and count in (16, 31):
            # 16 lanes of 81-bit residues fill 22 bytes exactly; at 31, e steps to 6.
            assert (width, 8 * width - (2 * size + 2 * e + 4)) == {16: (22, 0), 31: (23, 6)}[count]
        if m == _field(0, _DIGIT_LIMIT)[0] and count in (16, 31):
            # 16 lanes of one-digit residues take 10 bytes, 6 bits spare; at 31, e steps to 6.
            assert (width, 8 * width - (2 * size + 2 * e + 4)) == {16: (10, 6), 31: (10, 4)}[count]
        lane = [(ones >> 8 * width * j) % (1 << 8 * width) for j in range(count)]
        assert lane == [1] * count and ones >> 8 * width * count == 0
        assert tmask == ones * ((1 << size + e + 2) - 1)
        assert qmask == ones * ((1 << size + e + 1) - 1) and add == ones * ((1 << g) - m)


class TestInverses:
    """The lane kernel takes a lead's inverse only for a basis row that a later row is reduced against."""

    @pytest.mark.parametrize("nrows, ncols", [(1, 1), (2, 2), (5, 5), (16, 16), (3, 5)])
    def test_full_row_rank_block_takes_one_inverse_fewer_than_its_rows(self, monkeypatch, nrows, ncols):
        # The last row joins the basis (and fills it when the block is square),
        # so its inverse would never be read.
        rng = random.Random(nrows * 100 + ncols)
        while True:
            grid = [[random_gauss_int(rng) for _ in range(ncols)] for _ in range(nrows)]
            if exact_rank(grid).rank == nrows:  # also finds the first prime before pow is shadowed
                break
        calls = []

        def counted(*args):
            calls.append(args[1:])
            return pow(*args)

        monkeypatch.setattr(rank_module, "pow", counted, raising=False)
        assert exact_rank(grid).rank == nrows
        assert [exponent for exponent, _ in calls] == [-1] * (nrows - 1)


class TestGridEntries:
    """A raw grid holds ints, Fractions or scalars; every engine reads them as scalars."""

    def test_int_and_fraction_entries(self):
        assert exact_rank([[1, 2], [2, 4]]) == RankResult(1, (0,))
        assert exact_rank([[Fraction(1, 2), 1], [1, Scalar(2)]]) == RankResult(1, (0,))
        assert numeric_rank([[1, 2], [2, 4]]) == 1
        det = exact_det([[5]])
        assert isinstance(det, Scalar) and det == Scalar(5)
        assert exact_det([[Fraction(1, 2), 1], [3, Scalar(4)]]) == Scalar(-1)

    @pytest.mark.parametrize("engine", [exact_rank, exact_det, numeric_rank, to_complex_array])
    @pytest.mark.parametrize("entry", [1.5, 1j, "1"], ids=["float", "complex", "str"])
    def test_other_entries_raise_type_error(self, engine, entry):
        with pytest.raises(TypeError):
            engine([[entry]])


class TestPrimeFields:
    def test_fields_hold_i_and_sqrt2(self):
        # The first primes of each size, with none = 1 (mod 8) skipped between them or above them.
        sympy = pytest.importorskip("sympy")
        for limit, count in ((_DIGIT_LIMIT, 8), (_PRIME_LIMIT, 24)):
            primes = []
            for k in range(count):
                p, i_p, s_p = _field(k, limit)
                assert p % 8 == 1 and p < limit
                assert (i_p * i_p + 1) % p == 0
                assert (s_p * s_p - 2) % p == 0
                assert sympy.isprime(p)
                primes.append(p)
            assert primes == sorted(set(primes), reverse=True)
            assert primes == [q for q in sympy.primerange(primes[-1], limit) if q % 8 == 1][::-1]

    def test_first_one_digit_prime_is_one_digit(self):
        p = _field(0, _DIGIT_LIMIT)[0]
        assert _DIGIT_LIMIT == 1 << sys.int_info.bits_per_digit
        assert p.bit_length() == sys.int_info.bits_per_digit
        if sys.int_info.bits_per_digit == 30:
            assert p == (1 << 30) - 135

    def test_miller_rabin_matches_sieve(self):
        limit = 10**6
        sieve = bytearray([1]) * limit
        sieve[0] = sieve[1] = 0
        for q in range(2, math.isqrt(limit) + 1):
            if sieve[q]:
                sieve[q * q :: q] = bytes(len(range(q * q, limit, q)))
        assert [n for n in range(limit) if _is_prime(n)] == [n for n in range(limit) if sieve[n]]

    def test_miller_rabin_rejects_strong_pseudoprime(self):
        # a strong pseudoprime to every base 2..23, but not to 29, 31, 37
        assert not _is_prime(3825123056546413051)
        assert _is_prime(2**61 - 1)

    def test_miller_rabin_rejects_psi_12(self):
        # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to the
        # first 12 primes as bases; 81-bit fields need the 13th, 41.
        assert not _is_prime(318665857834031151167461)
        assert _is_prime((1 << 81) - 63) and _field(0)[0] == (1 << 81) - 63

    def test_concurrent_first_use_adds_each_prime_once(self, monkeypatch):
        # Six threads ask for prime 30 of each size, the one-digit list first.
        monkeypatch.setattr(rank_module, "_fields", {_DIGIT_LIMIT: [], _PRIME_LIMIT: []})
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for limit in (_DIGIT_LIMIT, _PRIME_LIMIT):
                workers = [threading.Thread(target=_field, args=(30, limit)) for _ in range(6)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                assert not any(worker.is_alive() for worker in workers)
                assert [len(fields) for fields in rank_module._fields.values()] == [31, 31 if limit == _PRIME_LIMIT else 0]
        finally:
            sys.setswitchinterval(previous)
        for limit, fields in rank_module._fields.items():
            primes = [p for p, _, _ in fields]
            assert primes == sorted(set(primes), reverse=True) and primes[0] < limit

    def test_import_searches_no_primes(self):
        code = "import sys, sloccrank.rank as r; sys.exit(len(r._fields) != 2 or sum(map(len, r._fields.values())))"
        env = {**os.environ, "PYTHONPATH": SRC}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


class TestExactDet:
    def test_ghz4_det_zero(self):
        assert exact_det(coefficient_matrix(ghz_state(4))) == ZERO

    def test_ladder_diagonal(self):
        assert exact_det(coefficient_matrix(ladder_state(4, 2))) == Scalar(-1)

    def test_identity_pattern(self):
        state = PureState(4, {0: 1, 5: 1, 10: 1, 15: 1})
        assert exact_det(coefficient_matrix(state)) == Scalar(1)

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            exact_det(coefficient_matrix(ghz_state(3)))

    @pytest.mark.parametrize("grid, shape", [([[1, 2, 3], [4, 5, 6]], "2x3"), ([[1], [2]], "2x1"), ([[]], "1x0")])
    def test_non_square_grid_names_its_shape(self, grid, shape):
        with pytest.raises(ShapeError, match=f"square matrix, got {shape}$"):
            exact_det(grid)

    @pytest.mark.parametrize("family", ["ghz", "w"])
    def test_sixteen_qubit_block_narrower_than_the_cut_is_zero_unlaid(self, monkeypatch, family):
        # 2 and 9 nonzero rows of 256: a zero row, found without laying the cut out or eliminating.
        state = ghz_state(16) if family == "ghz" else dicke_state(16, 1)
        monkeypatch.setattr(CoeffMatrix, "entries", property(lambda self: pytest.fail("entries were laid out")))
        monkeypatch.setattr(rank_module, "_other_conjugates", lambda x: pytest.fail("an elimination step ran"))
        assert exact_det(coefficient_matrix(state)) == ZERO

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_cut_equals_its_laid_out_grid(self, n):
        # Dense cuts take the full-support block; the others read positions,
        # with a full block, an empty row or an empty column.
        rng = random.Random(n)
        dense = PureState(n, {index: random_scalar(rng) or Scalar(1) for index in range(1 << n)})
        w = n - n // 2  # the identity cut's column bits
        amps = dense.amps.items()
        states = [
            dense,
            PureState(n, {i: x for i, x in amps if i % 7 != 3 or i >> w == 0}),  # holes, every row and column kept
            PureState(n, {i: x for i, x in amps if i >> w != 1}),  # row 1 empty
            PureState(n, {i: x for i, x in amps if i % (1 << w) != 1}),  # column 1 empty
            PureState(n, {(k << w) | k: k + 1 for k in range(1 << n // 2)}),  # the diagonal
        ]
        sigmas = enumerate_sigmas(n)
        dets = []
        for state in states:
            for sigma in sigmas:
                matrix = coefficient_matrix(state, sigma)
                dets.append(exact_det(matrix))
                assert dets[-1] == exact_det([list(row) for row in matrix.entries])
        assert all(dets[:len(sigmas)]) and dets[-len(sigmas)]  # not only 0 = 0

    def test_det_nonzero_iff_full_rank(self):
        rng = random.Random(29)
        for _ in range(50):
            grid = [[random_gauss_int(rng, 2) for _ in range(4)] for _ in range(4)]
            det = exact_det(grid)
            full = exact_rank(grid).rank == 4
            assert bool(det) == full
        # engineered singular case: dependent row
        grid = [[random_gauss_int(rng, 2, nonzero=True) for _ in range(4)] for _ in range(3)]
        grid.append([a + b for a, b in zip(grid[0], grid[1])])
        assert exact_det(grid) == ZERO
        assert exact_rank(grid).rank < 4

    def test_det_multiplicative_on_random_pairs(self):
        rng = random.Random(31)
        for _ in range(10):
            a = [[random_gauss_int(rng, 2) for _ in range(3)] for _ in range(3)]
            b = [[random_gauss_int(rng, 2) for _ in range(3)] for _ in range(3)]
            product = [
                [sum((a[i][k] * b[k][j] for k in range(3)), ZERO) for j in range(3)]
                for i in range(3)
            ]
            assert exact_det(product) == exact_det(a) * exact_det(b)


def reference_det(matrix) -> Scalar:
    """Bareiss elimination in Scalar arithmetic with first-nonzero row swaps.

    Slow but plainly exact: each step's entries are divided by the previous
    pivot through its exact inverse, so ``exact_det`` must match it.
    """
    grid = [[Scalar(x) for x in row] for row in getattr(matrix, "entries", matrix)]
    n = len(grid)
    if n == 0:
        return Scalar(1)
    sign = 1
    previous = Scalar(1)
    for k in range(n - 1):
        if not grid[k][k]:
            swap = next((i for i in range(k + 1, n) if grid[i][k]), None)
            if swap is None:
                return ZERO
            grid[k], grid[swap] = grid[swap], grid[k]
            sign = -sign
        pivot = grid[k][k]
        prev_inv = previous.inverse()
        lead = grid[k]
        for i in range(k + 1, n):
            row = grid[i]
            head = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - head * lead[j]) * prev_inv
            row[k] = ZERO
        previous = pivot
    det = grid[n - 1][n - 1]
    return det if sign == 1 else -det


DET_FIELDS = ("Q", "Q(i)", "Q(sqrt2)", "Q(i*sqrt2)", "Q(i, sqrt2)")


def field_entry(field: str, rng: random.Random) -> Scalar:
    """A small element of ``field`` whose coordinates are Fractions with denominators up to 4."""
    def q() -> Fraction:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    if field == "Q":
        return Scalar(q())
    if field == "Q(i)":
        return Scalar(GaussRational(q(), q()))
    if field == "Q(sqrt2)":
        return Scalar(q(), q())
    if field == "Q(i*sqrt2)":
        return Scalar(q(), GaussRational(0, q()))
    return Scalar(GaussRational(q(), q()), GaussRational(q(), q()))


def field_grid(field: str, rng: random.Random, n: int) -> list[list[Scalar]]:
    """An n x n grid over ``field``: some entries zero, some (k, k) entries zero, some grids singular."""
    zeros = rng.choice([0.0, 0.3, 0.6])
    grid = [[ZERO if rng.random() < zeros else field_entry(field, rng) for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.5:
        for k in rng.sample(range(n), rng.randint(1, n)):
            grid[k][k] = ZERO
    if n > 2 and rng.random() < 0.25:
        a, b = field_entry(field, rng), field_entry(field, rng)
        grid[-1] = [a * x + b * y for x, y in zip(grid[0], grid[1])]
    return grid


def unit_lower_times_upper(rng: random.Random, n: int, diagonal: Scalar) -> list[list[Scalar]]:
    """L * U, L unit lower triangular and U upper triangular with diagonal (``diagonal``, 1, ..., 1).

    The other entries lie in Z[i, sqrt2], so the grid is its own scaling
    (den = 1) when ``diagonal`` does, and every leading principal minor is
    ``diagonal``: every step of the elimination after the first divides by it.
    """
    def entry() -> Scalar:
        return Scalar(GaussRational(rng.randint(-2, 2), rng.randint(-2, 2)),
                      GaussRational(rng.randint(-2, 2), rng.randint(-2, 2)))

    one = Scalar(1)
    lower = [[one if i == j else entry() if j < i else ZERO for j in range(n)] for i in range(n)]
    upper = [[(diagonal if i == 0 else one) if i == j else entry() if j > i else ZERO
              for j in range(n)] for i in range(n)]
    return [[sum((lower[i][k] * upper[k][j] for k in range(n)), ZERO) for j in range(n)] for i in range(n)]


class TestDetAgainstReference:
    """``exact_det`` on integer coordinates equals the Scalar Bareiss loop ``reference_det``."""

    @pytest.mark.parametrize("field", DET_FIELDS)
    def test_seeded_grids(self, field):
        rng = random.Random(f"det {field}")
        swaps = singular = 0
        for n in range(9):
            for _ in range(6 if n < 6 else 3):
                grid = field_grid(field, rng, n)
                want = reference_det(grid)
                assert exact_det(grid) == want, (field, grid)
                swaps += n > 1 and not grid[0][0]
                singular += n > 0 and not want
        # The draws reach both the row swaps and the early zero.
        assert swaps and singular

    @pytest.mark.parametrize("diagonal", ["-1", "i", "1+s2", "-1+s2", "1+2*s2", "-3", "1+i+s2"])
    def test_unit_and_negative_norm_pivots(self, diagonal):
        # -1, i, 1 + sqrt2 and -1 + sqrt2 are units: N = 1 once made positive.  Norms: 1 + sqrt2 and
        # -1 + sqrt2 have -1, 1 + 2*sqrt2 has -7, and -3 is a negative rational.
        value = scalar_parse(diagonal)
        rng = random.Random(diagonal)
        for n in range(1, 7):
            grid = unit_lower_times_upper(rng, n, value)
            assert exact_det(grid) == reference_det(grid) == value
            # Reversed, the rows meet other pivots, and the reversal's parity flips the sign.
            flipped = value * (-1) ** (n * (n - 1) // 2)
            assert exact_det(grid[::-1]) == reference_det(grid[::-1]) == flipped

    def test_coeff_matrix_cuts(self):
        dense, _ = dense_state(11, 4, field=True)
        sparse = random_state(random.Random(12), 6, rational=True)
        for state in (dense, sparse, PureState.zero(4), PureState.zero(2), dicke_state(4, 2)):
            for sigma in enumerate_sigmas(state.n):
                cut = coefficient_matrix(state, sigma)
                assert exact_det(cut) == reference_det(cut), (state, sigma)
        assert exact_det(coefficient_matrix(dense))

    def test_no_scalar_arithmetic(self, monkeypatch):
        rng = random.Random(13)
        grid = [[field_entry("Q(i, sqrt2)", rng) for _ in range(6)] for _ in range(6)]
        grid[0][0] = ZERO
        cut = coefficient_matrix(dense_state(11, 4, field=True)[0])
        cases = [(grid, reference_det(grid)), (cut, reference_det(cut))]
        assert all(want for _, want in cases)

        def refuse(*args):
            raise AssertionError("Scalar arithmetic inside exact_det")

        for name in ("__add__", "__sub__", "__mul__", "__truediv__", "inverse"):
            monkeypatch.setattr(Scalar, name, refuse)
        for matrix, want in cases:
            assert exact_det(matrix) == want


def integer_entry(field: str, rng: random.Random, pool: int = 3) -> Scalar:
    """An element of Z, Z[i], Z[sqrt2], Z[i*sqrt2] or Z[i, sqrt2] with coordinates in [-pool, pool]."""
    a, b, c, d = (rng.randint(-pool, pool) for _ in range(4))
    if field == "Q":
        return Scalar(a)
    if field == "Q(i)":
        return Scalar(GaussRational(a, b))
    if field == "Q(sqrt2)":
        return Scalar(a, c)
    if field == "Q(i*sqrt2)":
        return Scalar(a, GaussRational(0, d))
    return Scalar(GaussRational(a, b), GaussRational(c, d))


def count_steps(monkeypatch) -> list:
    """The list that gains one item per finished elimination step of ``exact_det`` (one per pivot's conjugates)."""
    steps, real = [], rank_module._other_conjugates
    monkeypatch.setattr(rank_module, "_other_conjugates", lambda x: steps.append(1) or real(x))
    return steps


class TestPackedBareiss:
    """``exact_det`` on packed coordinate planes, at the edges of its lanes, pivots and planes."""

    @pytest.mark.parametrize("field", DET_FIELDS)
    def test_every_field_at_sizes_one_to_thirty_two(self, field):
        # Lanes start at the width of a 4-minor; from 5 x 5 on they are widened, several times at 16 to 32.
        rng = random.Random(f"packed {field}")
        for n in [*range(1, 13), 16, 24, 32]:
            want = ZERO
            while not want:  # a nonzero determinant, so the law is not only 0 = 0
                grid = [[integer_entry(field, rng) for _ in range(n)] for _ in range(n)]
                want = reference_det(grid)
            assert exact_det(grid) == want, (field, n)
        for n in range(1, 9):
            grid = field_grid(field, rng, n)  # with fractions, zeros and singular draws
            assert exact_det(grid) == reference_det(grid), (field, n)

    def test_denominators_as_wide_as_the_frac8_state(self):
        # The amplitude at index k is (k+1)/(k+2): the common denominator lcm(2, ..., 257) has 371 bits.
        state = PureState(8, {k: Fraction(k + 1, k + 2) for k in range(256)})
        cut = coefficient_matrix(state)
        want = reference_det(cut)
        assert want and exact_det(cut) == want == exact_det([list(row) for row in cut.entries])
        # The same denominators on entries of degree 4.
        units = [scalar_parse(text) for text in ("1", "i", "1+s2", "2-i+(1+i)*s2", "-3i*s2")]
        grid = [[Scalar(Fraction(k + 1, k + 2)) * units[k % 5] for k in range(i * 10, i * 10 + 10)] for i in range(10)]
        want = reference_det(grid)
        assert want and exact_det(grid) == want

    @pytest.mark.parametrize("field", DET_FIELDS)
    def test_a_singular_block_ends_at_each_column(self, monkeypatch, field):
        # L * U, L unit lower triangular and U upper triangular with U[k][k] = 0 and its other diagonal
        # entries nonzero: the leading minors of orders 1..k are not 0, so steps 0..k-1 take their pivots
        # on the diagonal, and step k finds none (for k = 0, column 0 is 0 and no step runs).
        rng = random.Random(f"ends {field}")
        steps = count_steps(monkeypatch)
        for n in (2, 5, 9):
            for k in range(n):
                def entry() -> Scalar:
                    return integer_entry(field, rng) or Scalar(1)

                lower = [[Scalar(1) if i == j else entry() if j < i else ZERO for j in range(n)] for i in range(n)]
                upper = [[(ZERO if i == k else entry()) if i == j else entry() if j > i else ZERO
                          for j in range(n)] for i in range(n)]
                grid = [[sum((lower[i][t] * upper[t][j] for t in range(n)), ZERO) for j in range(n)] for i in range(n)]
                steps.clear()
                assert exact_det(grid) == ZERO == reference_det(grid), (n, k)
                assert len(steps) == k, (n, k)

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_odd_and_even_swap_counts(self, n):
        # Rows of an upper triangular grid with diagonal d, permuted by s: det = sign(s) * prod(d).
        # Every permutation of 2 to 4 rows, and seeded ones of 7, reach both parities.
        rng = random.Random(n)
        diagonal = [integer_entry("Q(i)", rng) or Scalar(1) for _ in range(n)]
        upper = [[diagonal[i] if i == j else integer_entry("Q(i, sqrt2)", rng) if j > i else ZERO
                  for j in range(n)] for i in range(n)]
        orders = list(itertools.permutations(range(n))) if n <= 4 else [rng.sample(range(n), n) for _ in range(30)]
        parities = set()
        for order in orders:
            grid = [upper[i] for i in order]
            inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
            parities.add(inversions % 2)
            want = math.prod(diagonal, start=Scalar(1)) * (-1) ** inversions
            assert exact_det(grid) == reference_det(grid) == want, order
        assert parities == {0, 1}

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_a_zero_row_or_column_is_zero_without_a_step(self, monkeypatch, n):
        rng = random.Random(f"zero line {n}")
        steps = count_steps(monkeypatch)
        for p in range(n):
            grid = [[integer_entry("Q(i, sqrt2)", rng) or Scalar(1) for _ in range(n)] for _ in range(n)]
            for line in (grid[:p] + [[ZERO] * n] + grid[p + 1:], [row[:p] + [ZERO] + row[p + 1:] for row in grid]):
                assert exact_det(line) == ZERO == reference_det(line)
        assert not steps

    @pytest.mark.parametrize("bits", range(1, 41))
    def test_lanes_hold_minors_at_their_bound(self, bits):
        # Entries of coordinate bound E = 2^bits whose minors reach the bound n! * E^n (n = 2) or come
        # within a factor 2/3 of it (n = 4), so a lane one byte narrower overflows at every E.
        e = Scalar(1 << bits)
        ie = e * I
        signs = [[1, 1], [1, -1]]
        h2 = [[e * x for x in row] for row in signs]
        h4 = [[e * (x * y) for x in a for y in b] for a in signs for b in signs]  # Sylvester's Hadamard matrix
        gauss = [[e, ie], [ie, e]]
        for grid, want in ((h2, -2 * e * e), (h4, 16 * e**4), (gauss, 2 * e * e)):
            assert exact_det(grid) == want == reference_det(grid)


class TestNumericRank:
    def test_ghz4(self):
        assert numeric_rank(coefficient_matrix(ghz_state(4))) == 2

    def test_dicke_6_3(self):
        assert numeric_rank(coefficient_matrix(dicke_state(6, 3))) == 4

    def test_underflow_scale_entry_dropped(self):
        tiny = Scalar(Fraction(1, 10**300))
        grid = scalar_grid(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]
        )
        grid[2][2] = tiny
        # oracle: the singular values of a diagonal matrix are the absolute
        # entries, so the ratio to the largest is 1e-300, far below the
        # default threshold
        singular_values = np.linalg.svd(to_complex_array(grid), compute_uv=False)
        default_tol = 4 * np.finfo(float).eps * singular_values[0]
        assert singular_values[3] / singular_values[0] < default_tol
        assert numeric_rank(grid) == 3
        assert exact_rank(grid).rank == 4  # exact arithmetic still sees it

    def test_explicit_tolerance(self):
        grid = scalar_grid([[1, 0], [0, 1]])
        assert numeric_rank(grid, tol=2.0) == 0
        assert numeric_rank(grid, tol=0.5) == 2

    def test_zero_matrix(self):
        assert numeric_rank(coefficient_matrix(PureState.zero(4))) == 0

    # 10**400 overflows the float division; 10**308 + 10**308*sqrt2 rounds to
    # inf, which the SVD reads as rank 0.
    @pytest.mark.parametrize("big", [10**400, 10**308 + 10**308 * SQRT2], ids=["overflow", "inf"])
    def test_entry_beyond_double_range_is_a_numeric_failure(self, big):
        matrix = coefficient_matrix(PureState(2, {0: big, 3: 1}))
        assert exact_rank(matrix).rank == 2
        with pytest.raises(NumericFailure, match="beyond double range"):
            to_complex_array(matrix)
        with pytest.raises(NumericFailure, match="beyond double range"):
            numeric_rank(matrix)

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            numeric_rank(coefficient_matrix(ghz_state(4)), tol=tol)

    def test_zero_tolerance_is_allowed(self):
        assert numeric_rank(coefficient_matrix(ghz_state(4)), tol=0.0) == 2

    def test_numpy_is_imported_lazily(self):
        code = "import sys, sloccrank; sys.exit('numpy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": SRC}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

    @pytest.mark.parametrize("module", ["scalar", "states", "coeffmatrix", "rank", "slocc", "classify", "cli"])
    def test_annotations_resolve_as_a_type_checker_reads_them(self, module):
        # Names a module imports only under TYPE_CHECKING (numpy in rank, kept
        # off the import path) are bound here as a type checker binds them.
        module = importlib.import_module(f"sloccrank.{module}")
        names: dict = {}
        for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                exec(compile(ast.Module(node.body, []), module.__file__, "exec"), names)
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            methods = [v for v in vars(obj).values() if inspect.isfunction(v)] if inspect.isclass(obj) else []
            for fn in [obj, *methods] if callable(obj) else []:
                typing.get_type_hints(fn, localns=names)

    def test_agrees_with_exact_on_random_states(self):
        rng = random.Random(37)
        for n in range(2, 7):
            for _ in range(4):
                state = random_state(rng, n, rational=True)
                for sigma in enumerate_sigmas(n):
                    matrix = coefficient_matrix(state, sigma)
                    assert numeric_rank(matrix) == exact_rank(matrix).rank


def test_separable_states_have_rank_one():
    for n in range(2, 7):
        state = basis_state(n, (1 << n) - 1)
        assert exact_rank(coefficient_matrix(state)).rank == 1


def test_package_republishes_every_module_all():
    modules = ["scalar", "states", "coeffmatrix", "rank", "classify", "slocc"]
    names = []
    for name in modules:
        module = importlib.import_module(f"sloccrank.{name}")
        names += module.__all__
        for attr in module.__all__:
            assert getattr(sloccrank, attr) is getattr(module, attr), attr
    assert len(set(names)) == len(names)
    assert sloccrank.__all__ == names
