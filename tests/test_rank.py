"""Exact rank/determinant engines and the SVD cross-check."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import threading
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
    coefficient_matrix,
    enumerate_sigmas,
)
from sloccrank.rank import (
    RankResult,
    ShapeError,
    StateCut,
    _field,
    _is_prime,
    exact_det,
    exact_rank,
    numeric_rank,
    state_cuts,
    to_complex_array,
)
from sloccrank.scalar import GaussRational, I, SQRT2, Scalar, ZERO, scalar_parse
from sloccrank.slocc import LocalOperator, apply_local
from sloccrank.states import PureState, basis_state, dicke_state, ghz_state, ladder_state

from conftest import dense_state, random_gauss_int, random_scalar, random_state

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

    def test_entry_divisible_by_first_prime(self):
        p1 = _field(0)[0]
        assert exact_rank(scalar_grid([[p1, 1]])) == RankResult(1, (0,))
        # the zero row must not zero the bound for the 2 x 2 minors
        assert exact_rank(scalar_grid([[p1, 1], [0, 0]])) == RankResult(1, (0,))

    def test_entry_divisible_by_first_three_primes(self):
        product = _field(0)[0] * _field(1)[0] * _field(2)[0]
        assert exact_rank(scalar_grid([[product]])) == RankResult(1, (0,))

    def test_entries_in_the_kernel_of_the_first_embedding(self):
        _, i_p, s_p = _field(0)
        # i - i_p and sqrt2 - s_p map to 0 mod the first prime but are nonzero
        for entry in (I - i_p, SQRT2 - s_p):
            assert exact_rank([[entry, Scalar(1)]]) == RankResult(1, (0,))

    def test_minor_divisible_by_first_prime(self):
        p1 = _field(0)[0]
        grid = scalar_grid([[1, 1], [1, 1 + p1]])  # det = p1
        assert exact_rank(grid) == RankResult(2, (0, 1))
        grid = scalar_grid([[p1, 0, 1], [0, 1, 0]])
        assert exact_rank(grid) == reference_rank(grid) == RankResult(2, (0, 1))

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

    def test_wide_high_rank_matches_reference(self):
        rng = random.Random(41)
        for rows, cols in ((3, 7), (7, 3), (6, 6)):
            grid = [[random_scalar(rng) for _ in range(cols)] for _ in range(rows)]
            grid.append([a + b for a, b in zip(grid[0], grid[-1])])
            assert exact_rank(grid) == reference_rank(grid)


def cut_ranks(state: PureState, sigmas) -> list[RankResult]:
    return [exact_rank(cut) for cut in state_cuts(state, sigmas)]


def short_root(p: int, t: int) -> tuple[int, int]:
    """(a, b) with a = b*t (mod p) and |a|, |b| < sqrt(p), by Euclid stopped half-way.

    Each remainder r_k of p and t satisfies r_k = t_k * t (mod p).
    """
    r0, r1, t0, t1 = p, t, 0, 1
    while r1 * r1 >= p:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return r1, t1


def first_prime_zero(ring: str) -> Scalar:
    """A short nonzero element of ``ring`` that maps to 0 modulo the first prime."""
    p, i_p, s_p = _field(0)
    if ring == "Z":
        return Scalar(p)
    unit, t = {"Z[i]": (I, i_p), "Z[sqrt2]": (SQRT2, s_p), "Z[sqrt-2]": (I * SQRT2, i_p * s_p % p)}[ring]
    a, b = short_root(p, t)
    return a - b * unit


def residue(x: Scalar, k: int = 0) -> int:
    p, i_p, s_p = _field(k)
    a, b, c, d, den = x.coords
    return (a + b * i_p + (c + d * i_p) * s_p) * pow(den, -1, p) % p


class TestDegreeRule:
    """Entries that vanish modulo the first prime yet are as short as their ring allows.

    Each matrix here has a nonzero minor that vanishes mod the first prime.
    The stop rule needs modulus^2 > P^d with d the degree of the entries'
    field; a rule that undercounts d, or P, stops after the first prime with
    too small a rank.
    """

    def test_short_kernel_element_of_degree_four(self):
        # LLL-short in the kernel of the first prime's embedding: e has 17
        # bits, so P = e^2 and the d = 2 rule (or B in place of B^2) stops.
        x = scalar_parse("18021+38612i+(-10362+9205i)*s2")
        a, b, c, d, _ = x.coords
        assert residue(x) == 0
        assert (abs(a) + abs(b) + 2 * (abs(c) + abs(d))).bit_length() == 17
        assert exact_rank([[x]]) == RankResult(1, (0,))
        assert cut_ranks(PureState(1, {1: x}), [IDENTITY]) == [RankResult(1, (1,))]

    @pytest.mark.parametrize("ring", ["Z", "Z[i]", "Z[sqrt2]", "Z[sqrt-2]"])
    def test_entry_in_each_subring(self, ring):
        x = first_prime_zero(ring)
        assert x and residue(x) == 0
        assert max(abs(v) for v in x.coords).bit_length() <= (62 if ring == "Z" else 32)
        assert exact_rank([[x]]) == RankResult(1, (0,))
        assert exact_rank([[x, ZERO], [ZERO, Scalar(1)]]) == RankResult(2, (0, 1))
        assert cut_ranks(PureState(1, {0: x}), [IDENTITY]) == [RankResult(1, (0,))]

    def test_degree_reads_every_entry(self):
        x = first_prime_zero("Z[i]")
        assert exact_rank([[ZERO], [x]]) == RankResult(1, (0,))
        assert exact_rank(scalar_grid([[1, 0], [0, x]])) == RankResult(2, (0, 1))
        assert cut_ranks(PureState(2, {0: 1, 3: x}), [IDENTITY]) == [RankResult(2, (0, 1))]

    def test_square_sums_follow_the_cut(self):
        # Amplitudes 0..3 fill one row of the identity cut but the 2 x 2 block
        # [[s, 1], [c, s]] of the cut 1:3, whose determinant s^2 - c is p1.
        # Read through the identity table, the e^2 sums bound that block's
        # minors by about 2*p1, and the rule would stop after one prime.
        p = _field(0)[0]
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
    """A sparse state of ``kind`` entries made dense by invertible operators of the same kind."""
    rng = random.Random(seed)
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
    """``state_cuts`` reads every cut from one scaled residue vector per prime."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["rational", "gauss", "sqrt2", "i*sqrt2", "mixed"]))
    def test_equals_matrix_route_and_reference(self, n, seed, kind):
        state = dense_state_of_kind(seed, n, kind)
        sigmas = enumerate_sigmas(n) if n > 1 else [IDENTITY]
        for sigma, cut in zip(sigmas, state_cuts(state, sigmas), strict=True):
            matrix = coefficient_matrix(state, sigma)
            assert cut.sigma == sigma and cut.entries == matrix.entries
            assert exact_rank(cut) == exact_rank(matrix) == reference_rank(matrix)

    def test_zero_state(self):
        assert cut_ranks(PureState.zero(4), enumerate_sigmas(4)) == [RankResult(0, ())] * 3

    def test_signature_builds_no_coefficient_matrix(self, monkeypatch):
        state = dense_state(5, 6, field=True)[0]
        sigmas = enumerate_sigmas(6)
        expected = tuple(exact_rank(coefficient_matrix(state, sigma)).rank for sigma in sigmas)
        built = []
        real = CoeffMatrix.__init__
        monkeypatch.setattr(CoeffMatrix, "__init__",
                            lambda self, *args, **kw: built.append(1) or real(self, *args, **kw))
        assert rank_signature(state, sigmas).ranks == expected
        assert built == []

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
        assert all(isinstance(cut, StateCut) for cut in seen)


class TestPrimeFields:
    def test_fields_hold_i_and_sqrt2(self):
        sympy = pytest.importorskip("sympy")
        primes = []
        for k in range(24):
            p, i_p, s_p = _field(k)
            assert p % 8 == 1 and p < 2**62
            assert (i_p * i_p + 1) % p == 0
            assert (s_p * s_p - 2) % p == 0
            assert sympy.isprime(p)
            primes.append(p)
        assert primes == sorted(set(primes), reverse=True)

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

    def test_concurrent_first_use_adds_each_prime_once(self, monkeypatch):
        monkeypatch.setattr(rank_module, "_fields", [])
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=_field, args=(30,)) for _ in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(previous)
        primes = [p for p, _, _ in rank_module._fields]
        assert len(primes) == 31
        assert primes == sorted(set(primes), reverse=True)

    def test_import_searches_no_primes(self):
        code = "import sys, sloccrank.rank as r; sys.exit(len(r._fields))"
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
