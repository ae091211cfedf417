"""Bipartition enumeration, qubit relabeling, and matrix construction."""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sloccrank.coeffmatrix import (
    IDENTITY,
    CoeffMatrix,
    QubitPermutation,
    coefficient_matrix,
    enumerate_sigmas,
)
from sloccrank.rank import exact_rank, to_complex_array
from sloccrank.scalar import Scalar
from sloccrank.states import (
    MAX_QUBITS,
    PureState,
    basis_state,
    dicke_state,
    family_state,
    ghz_state,
)

from conftest import cut_qubits, dense_state, random_scalar, random_state, split_matrix


class TestQubitPermutation:
    def test_pairs_are_normalized_and_sorted(self):
        sigma = QubitPermutation(((4, 1), (2, 5)))
        assert sigma.transpositions == ((1, 4), (2, 5))

    def test_identity(self):
        assert IDENTITY.is_identity
        assert IDENTITY.to_text() == ""
        assert QubitPermutation.from_text("") == IDENTITY

    def test_image(self):
        sigma = QubitPermutation(((1, 4),))
        assert sigma.image(1) == 4
        assert sigma.image(4) == 1
        assert sigma.image(2) == 2

    def test_text_round_trip(self):
        sigma = QubitPermutation(((1, 4), (2, 5)))
        assert QubitPermutation.from_text(sigma.to_text()) == sigma
        assert QubitPermutation.from_text("1:4,2:5") == sigma

    @pytest.mark.parametrize("text", ["1", "1:", "x:2", "1:2,1:3", "1:1_0", "\u0663:4"])
    def test_bad_text(self, text):
        with pytest.raises(ValueError):
            QubitPermutation.from_text(text)

    def test_overlapping_labels_rejected(self):
        with pytest.raises(ValueError):
            QubitPermutation(((1, 2), (2, 3)))
        with pytest.raises(ValueError):
            QubitPermutation(((2, 2),))

    @pytest.mark.parametrize("pair", [(True, 3), (3, True), (False, 2), (1.0, 2), (0, 2), (1, -2)])
    def test_bad_labels_rejected(self, pair):
        # a bool would print as "True:3", which from_text rejects
        with pytest.raises(ValueError, match="positive ints"):
            QubitPermutation((pair,))


class TestEnumeration:
    def test_counts_match_binomials(self):
        for n in range(2, 11):
            expected = comb(n, n // 2) // (2 if n % 2 == 0 else 1)
            assert len(enumerate_sigmas(n)) == expected

    def test_small_listings(self):
        assert [s.to_text() for s in enumerate_sigmas(3)] == ["", "1:2", "1:3"]
        assert [s.to_text() for s in enumerate_sigmas(4)] == ["", "1:3", "1:4"]
        assert len(enumerate_sigmas(5)) == 10

    def test_identity_first_and_ordering_by_size(self):
        for n in range(2, 9):
            sigmas = enumerate_sigmas(n)
            assert sigmas[0] == IDENTITY
            sizes = [len(s) for s in sigmas]
            assert sizes == sorted(sizes)

    def test_row_bit_sets_distinct_and_never_complementary(self):
        for n in range(2, 9):
            seen = set()
            for sigma in enumerate_sigmas(n):
                row_set = frozenset(cut_qubits(sigma, n)[0])
                assert row_set not in seen
                if n % 2 == 0:
                    complement = frozenset(range(1, n + 1)) - row_set
                    assert complement not in seen
                seen.add(row_set)

    def test_matches_subset_quotient_model(self):
        # independent construction: pick the row-bit subset directly, keep
        # one representative per complementary pair for even n
        for n in range(2, 9):
            half = n // 2
            default_rows = set(range(1, half + 1))
            expected = set()
            for subset in combinations(range(1, n + 1), half):
                chosen = set(subset)
                if n % 2 == 0 and half not in chosen:
                    continue  # the complementary representative is kept instead
                outgoing = sorted(default_rows - chosen)
                incoming = sorted(chosen - default_rows)
                expected.add(tuple(zip(outgoing, incoming)))
            produced = {s.transpositions for s in enumerate_sigmas(n)}
            assert produced == expected

    def test_one_qubit_has_one_cut(self):
        assert enumerate_sigmas(1) == [IDENTITY]

    def test_too_many_qubits(self):
        with pytest.raises(ValueError, match="qubit count"):
            enumerate_sigmas(MAX_QUBITS + 1)


def permuted(state: PureState, sigma: QubitPermutation) -> PureState:
    """``state`` with the qubits of each pair of ``sigma`` exchanged: each amplitude moved to its position in the cut."""
    return PureState(state.n, dict(zip(coefficient_matrix(state, sigma).positions(), state.amps.values())),
                     allow_zero=True)


class TestPermuteState:
    """A cut places each amplitude at its basis index with the qubits of each pair exchanged."""

    def test_identity_returns_same_state(self):
        state = ghz_state(4)
        assert coefficient_matrix(state).positions() == list(state.amps)
        assert permuted(state, IDENTITY) == state

    def test_swap_example(self):
        state = basis_state(4, 0b1100)
        assert coefficient_matrix(state, QubitPermutation(((1, 4),))).positions() == [0b0101]

    def test_involution(self):
        rng = random.Random(11)
        for n in (3, 4, 5):
            sigmas = enumerate_sigmas(n)
            for _ in range(10):
                state = random_state(rng, n)
                sigma = sigmas[rng.randrange(len(sigmas))]
                assert permuted(permuted(state, sigma), sigma) == state

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="exceeds n=3"):
            coefficient_matrix(ghz_state(3), QubitPermutation(((1, 4),)))

    def test_zero_state_passes_through(self):
        zero = PureState.zero(4)
        assert coefficient_matrix(zero, QubitPermutation(((1, 4),))).positions() == []
        assert permuted(zero, QubitPermutation(((1, 4),))).is_zero


class TestCoefficientMatrix:
    def test_three_qubit_layout(self):
        state = PureState(3, {i: i + 1 for i in range(8)})
        matrix = coefficient_matrix(state)
        expected = (
            tuple(Scalar(v) for v in (1, 2, 3, 4)),
            tuple(Scalar(v) for v in (5, 6, 7, 8)),
        )
        assert matrix.entries == expected

    def test_ghz4_matrix(self):
        matrix = coefficient_matrix(ghz_state(4))
        assert matrix.rows == matrix.cols == 4
        for i in range(4):
            for j in range(4):
                expected = Scalar(1) if (i, j) in ((0, 0), (3, 3)) else Scalar(0)
                assert matrix.entries[i][j] == expected

    def test_span_family_swap_gives_diagonal(self):
        # derived by hand: swapping qubits 1 and 4 sends the four kets to
        # indices 0, 5, 10, 15, one per diagonal slot
        state = family_state("span_0kPsi", alpha=2, beta=3)
        matrix = coefficient_matrix(state, QubitPermutation(((1, 4),)))
        diag = [Scalar(1), Scalar(1), Scalar(2), Scalar(3)]
        for i in range(4):
            for j in range(4):
                assert matrix.entries[i][j] == (diag[i] if i == j else Scalar(0))

    def test_split_metadata(self):
        state = dense_state(3, 5, field=True)[0]
        sigma = QubitPermutation(((1, 4),))
        matrix = coefficient_matrix(state, sigma)
        assert (matrix.n, matrix.sigma, matrix.rows, matrix.cols) == (5, sigma, 4, 8)
        assert cut_qubits(sigma, 5) == ((4, 2), (3, 1, 5))
        assert matrix.entries == split_matrix(state, (4, 2), (3, 1, 5))
        assert repr(matrix) == "CoeffMatrix(4x8, sigma='1:4')"

    def test_agrees_with_direct_split_extraction(self):
        rng = random.Random(23)
        for n in (4, 5):
            for _ in range(5):
                state = random_state(rng, n)
                for sigma in enumerate_sigmas(n):
                    direct = split_matrix(state, *cut_qubits(sigma, n))
                    assert coefficient_matrix(state, sigma).entries == direct

    def test_cut_builds_no_state(self, monkeypatch):
        state = dense_state(5, 6, field=True)[0]
        built = []
        real = PureState.__init__
        monkeypatch.setattr(PureState, "__init__",
                            lambda self, *args, **kw: built.append(1) or real(self, *args, **kw))
        for sigma in enumerate_sigmas(6):
            assert coefficient_matrix(state, sigma).entries == split_matrix(state, *cut_qubits(sigma, 6))
        assert built == []

    def test_zero_state_maps_to_zero_matrix(self):
        matrix = coefficient_matrix(PureState.zero(3))
        assert all(not e for row in matrix.entries for e in row)

    def test_frobenius_norm_matches_state_norm(self):
        rng = random.Random(31)
        for n in (3, 4, 5):
            state = random_state(rng, n)
            norm_sq = sum(abs(complex(a)) ** 2 for a in state.amps.values())
            for sigma in enumerate_sigmas(n):
                array = to_complex_array(coefficient_matrix(state, sigma))
                assert abs((np.abs(array) ** 2).sum() - norm_sq) < 1e-12


class TestBipartitionCompleteness:
    def test_excluded_splits_are_transposes_with_equal_rank(self):
        rng = random.Random(47)
        n = 4
        all_labels = frozenset(range(1, n + 1))
        for _ in range(10):
            state = random_state(rng, n)
            for sigma in enumerate_sigmas(n):
                rows = frozenset(cut_qubits(sigma, n)[0])
                cols = sorted(all_labels - rows)
                included = split_matrix(state, sorted(rows), cols)
                excluded = split_matrix(state, cols, sorted(rows))
                transposed = tuple(zip(*included))
                assert excluded == transposed
                rank = exact_rank(coefficient_matrix(state, sigma)).rank
                assert exact_rank(included).rank == rank
                assert exact_rank(excluded).rank == rank


class TestBitSplit:
    """How a cut splits the qubits between its rows and its columns."""

    def test_partition_validated(self):
        # every cut of a state with all 2^n amplitudes puts each in its own cell
        for n in range(2, 7):
            state = dense_product_state(n, n)
            for sigma in enumerate_sigmas(n):
                assert sorted(coefficient_matrix(state, sigma).positions()) == list(range(1 << n))
        with pytest.raises(ValueError, match="exceeds n=4"):
            CoeffMatrix(ghz_state(4), QubitPermutation(((2, 5),)))
        with pytest.raises(ValueError):
            split_matrix(ghz_state(4), (1, 2), (2, 3))

    def test_dicke_matrix_row_count(self):
        matrix = coefficient_matrix(dicke_state(6, 2))
        assert (matrix.rows, matrix.cols) == (8, 8)


def dense_product_state(seed: int, n: int) -> PureState:
    """A product of n single-qubit vectors with both entries nonzero field elements."""
    rng = random.Random(seed)
    amps = {0: Scalar(1)}
    for _ in range(n):
        factor = [random_scalar(rng) for _ in range(2)]
        while not all(factor):
            factor = [random_scalar(rng) for _ in range(2)]
        amps = {(index << 1) | bit: amp * factor[bit] for index, amp in amps.items() for bit in (0, 1)}
    return PureState(n, amps)


class TestDenseStates:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), field=st.booleans())
    def test_matches_direct_split_on_every_cut(self, n, seed, field):
        state, _ = dense_state(seed, n, field)
        for sigma in enumerate_sigmas(n):
            assert coefficient_matrix(state, sigma).entries == split_matrix(state, *cut_qubits(sigma, n))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_product_states_have_rank_one_on_every_cut(self, n, seed):
        state = dense_product_state(seed, n)
        assert len(state.amps) == 1 << n
        for sigma in enumerate_sigmas(n):
            assert exact_rank(coefficient_matrix(state, sigma)).rank == 1
