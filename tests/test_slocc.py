"""Local-operator action and the exact transformation identities."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from unittest.mock import ANY

import pytest

import sloccrank.classify
import sloccrank.slocc
from sloccrank.coeffmatrix import CoeffMatrix, QubitPermutation, coefficient_matrix, enumerate_sigmas
from sloccrank.rank import ShapeError, exact_det, exact_rank
from sloccrank.scalar import GaussRational, Scalar, scalar_parse
from sloccrank.slocc import (
    LocalOperator,
    _equation_holds,
    _predicted_matrix,
    apply_local,
    load_operators,
    operators_from_json,
    operators_to_json,
    random_invertible_ops,
    random_local_ops,
    save_operators,
    verify_det_relation,
    verify_matrix_equation,
    verify_trials,
)
from sloccrank.states import PureState, dicke_state, ghz_state, ladder_state

from conftest import (
    cut_qubits,
    random_gauss_int,
    random_scalar,
    random_singular_operator,
    random_state,
    split_matrix,
)

X = LocalOperator(((0, 1), (1, 0)))
P0 = LocalOperator(((1, 0), (0, 0)))


def identity_ops(n):
    return [LocalOperator.identity() for _ in range(n)]


def nonzero_field_scalar(rng):
    while True:
        if value := random_scalar(rng):
            return value


def field_state(rng, n, terms):
    """``terms`` amplitudes that are full field elements, with fractions and sqrt2 parts."""
    return PureState(n, {index: nonzero_field_scalar(rng) for index in rng.sample(range(1 << n), terms)})


def field_operator(rng):
    return LocalOperator([[random_scalar(rng) for _ in range(2)] for _ in range(2)])


def field_singular_operator(rng):
    """Rank <= 1 operator with full field entries, built as an outer product, so det is exactly 0."""
    u = [random_scalar(rng) for _ in range(2)]
    v = [random_scalar(rng) for _ in range(2)]
    return LocalOperator(((u[0] * v[0], u[0] * v[1]), (u[1] * v[0], u[1] * v[1])))


class TestLocalOperator:
    def test_shape_validated(self):
        with pytest.raises(ValueError):
            LocalOperator(((1, 0, 0), (0, 1, 0)))

    def test_det_and_invertibility(self):
        assert X.det() == Scalar(-1)
        assert X.is_invertible
        assert P0.det() == Scalar(0)
        assert not P0.is_invertible


class TestApplyLocal:
    def test_identity_acts_trivially(self):
        state = ladder_state(5, 2)
        assert apply_local(state, identity_ops(5)) == state

    def test_bit_flip_on_first_qubit(self):
        result = apply_local(ghz_state(3), [X] + identity_ops(2))
        assert set(result.amps) == {4, 3}
        assert result.amps[4] == Scalar(1)
        assert result.amps[3] == Scalar(1)

    def test_projector_kills_branch(self):
        result = apply_local(ghz_state(3), [P0] + identity_ops(2))
        assert dict(result.amps) == {0: Scalar(1)}

    def test_can_annihilate_entirely(self):
        raising = LocalOperator(((0, 1), (0, 0)))
        result = apply_local(PureState(2, {0: 1}), [raising, LocalOperator.identity()])
        assert result.is_zero
        assert exact_rank(coefficient_matrix(result)).rank == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_local(ghz_state(3), identity_ops(2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_kronecker_product_times_the_amplitude_vector(self, n):
        rng = random.Random(1900 + n)
        for trial in range(6):
            state = field_state(rng, n, (1 << n) if trial % 2 else min(4, 1 << n))
            ops = [field_operator(rng) for _ in range(n)]
            if trial >= 2:
                ops[rng.randrange(n)] = field_singular_operator(rng)
            if trial == 5:
                ops[rng.randrange(n)] = random_singular_operator(rng)
            assert dict(apply_local(state, ops).amps) == kron_applied(state, ops)

    def test_field_operators_annihilate_by_cancellation(self):
        # Qubit 1's operator has both rows along (s2, 1/3), which the state's
        # qubit-1 factor (1/3, -s2) is orthogonal to: every amplitude cancels.
        a, b = scalar_parse("1/2+s2"), scalar_parse("-i")
        third, s2 = Scalar(1) / 3, scalar_parse("s2")
        state = PureState(2, {0: third * a, 1: third * b, 2: -s2 * a, 3: -s2 * b})
        kill = LocalOperator(((s2, third), (scalar_parse("2i") * s2, scalar_parse("2/3i"))))
        ops = [kill, LocalOperator(((scalar_parse("1/5"), s2), (1, scalar_parse("(1-i)*s2"))))]
        assert not kill.is_invertible
        assert kron_applied(state, ops) == {}
        assert apply_local(state, ops).is_zero


def kron_oracle(ops):
    """The explicit Kronecker product: entry (i, j) is the product of ops[m][i_m][j_m].

    i_m and j_m are bit m of i and j, read from the top.
    """
    k = len(ops)
    return [[math.prod((op.entries[i >> (k - 1 - m) & 1][j >> (k - 1 - m) & 1] for m, op in enumerate(ops)),
                       start=Scalar(1))
             for j in range(1 << k)] for i in range(1 << k)]


def kron_applied(state, ops):
    """The nonzero amplitudes of ``kron_oracle(ops)`` times the state's amplitude vector."""
    vector = [state.amplitude(j) for j in range(1 << state.n)]
    products = (sum((k * v for k, v in zip(row, vector)), Scalar(0)) for row in kron_oracle(ops))
    return {i: x for i, x in enumerate(products) if x}


def matmul(left, right):
    return [[sum((x * y for x, y in zip(row, col)), Scalar(0)) for col in zip(*right)] for row in left]


def predicted_oracle(state, ops, sigma):
    """(row-slot operators)^⊗ · M(sigma) · ((column-slot operators)^⊗)^T, from explicit grids.

    Returned as ``_predicted_matrix`` returns it: the nonzero entries, keyed by row-major position.
    """
    rows, cols = cut_qubits(sigma, state.n)
    matrix = split_matrix(state, rows, cols)
    right = kron_oracle([ops[q - 1] for q in cols])
    product = matmul(matmul(kron_oracle([ops[q - 1] for q in rows]), matrix), list(zip(*right)))
    return {i * len(row) + j: x for i, row in enumerate(product) for j, x in enumerate(row) if x}


def full_support_state(rng, n):
    return PureState(n, {index: random_gauss_int(rng, nonzero=True) for index in range(1 << n)})


class TestPredictedMatrix:
    """``_predicted_matrix`` (n mode products) against explicit Kronecker grids."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("support", ["sparse", "full"])
    def test_equals_kronecker_oracle_on_every_sigma(self, n, support):
        rng = random.Random(1000 * n + len(support))
        for _ in range(3):
            state = random_state(rng, n, max_terms=4) if support == "sparse" else full_support_state(rng, n)
            ops = random_local_ops(n, rng.randrange(2**32))
            ops[rng.randrange(n)] = random_singular_operator(rng)
            for sigma in enumerate_sigmas(n):
                assert _predicted_matrix(state, ops, sigma) == predicted_oracle(state, ops, sigma)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("support", ["sparse", "full"])
    def test_field_entries_equal_kronecker_oracle_on_every_sigma(self, n, support):
        rng = random.Random(1900 + 10 * n + len(support))
        for _ in range(2):
            state = field_state(rng, n, min(4, 1 << n) if support == "sparse" else 1 << n)
            ops = [field_operator(rng) for _ in range(n)]
            ops[rng.randrange(n)] = field_singular_operator(rng)
            for sigma in enumerate_sigmas(n):
                assert _predicted_matrix(state, ops, sigma) == predicted_oracle(state, ops, sigma)

    def test_pair_with_only_its_high_half_nonzero(self):
        # |100>: only index 4 holds an amplitude, so the first pass pairs a
        # zero low half with a nonzero high half.
        state = PureState(3, {4: 1})
        ops = [LocalOperator(((1, 2), (3, 4)))] + identity_ops(2)
        assert _predicted_matrix(state, ops, QubitPermutation()) == {0: 2, 4: 4}

    def test_dense_ten_qubit_dicke_under_two_transpositions(self):
        op = LocalOperator([[scalar_parse("1+i"), 2], [1, scalar_parse("-1+2i")]])
        state = apply_local(dicke_state(10, 3), [op] * 10)
        assert len(state.amps) == 1 << 10
        ops = random_invertible_ops(10, 17)
        assert len(set(ops)) == 10
        sigma = QubitPermutation(((2, 7), (4, 9)))
        assert verify_matrix_equation(state, ops, sigma)
        # One entry of qubit 7's operator, which sits in row slot 2, changed by 1.
        (a, b), (c, d) = ops[6].entries
        changed = ops[:6] + [LocalOperator(((a, b + 1), (c, d)))] + ops[7:]
        assert not _equation_holds(state, changed, apply_local(state, ops), sigma)


def prime_denominator_state(rng, n):
    """Every coordinate of every amplitude over its own prime, so the common denominator is wide."""
    primes = [p for p in range(2, 2000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    denominators = iter(rng.sample(primes, 4 << n))

    def part():
        return Fraction(rng.choice([-1, 1]) * rng.randrange(1, 1000), next(denominators))

    return PureState(n, {index: Scalar(GaussRational(part(), part()), GaussRational(part(), part()))
                         for index in range(1 << n)})


def wide_state(rng, n, bits):
    """Full field amplitudes: numerators of about ``bits`` bits over one denominator of as many."""
    den = rng.getrandbits(bits) | 1

    def part():
        return Fraction(rng.choice([-1, 1]) * rng.getrandbits(bits), den)

    return PureState(n, {index: Scalar(GaussRational(part(), part()), GaussRational(part(), part()))
                         for index in range(1 << n)})


def annihilator(x0, x1):
    """A singular operator both of whose rows are orthogonal to (x0, x1)."""
    u, v = scalar_parse("2-i"), scalar_parse("1/3+s2")
    return LocalOperator(((u * x1, -u * x0), (v * x1, -v * x0)))


class TestPlanes:
    """Both transforms against the Kronecker oracles where the packed planes are at their edges."""

    @staticmethod
    def check(state, ops, sigmas=None):
        assert dict(apply_local(state, ops).amps) == kron_applied(state, ops)
        for sigma in enumerate_sigmas(state.n) if sigmas is None else sigmas:
            assert _predicted_matrix(state, ops, sigma) == predicted_oracle(state, ops, sigma)

    def test_wide_common_denominator(self):
        # (k+1)/(k+2) at index k: the common denominator is lcm(2, ..., 65), 90 bits.
        state = PureState(6, {k: Fraction(k + 1, k + 2) for k in range(64)})
        self.check(state, random_invertible_ops(6, 41), enumerate_sigmas(6)[::3])

    def test_prime_denominators_in_every_coordinate(self):
        rng = random.Random(43)
        state = prime_denominator_state(rng, 4)
        self.check(state, [field_operator(rng) for _ in range(4)])

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_three_hundred_bit_amplitudes(self, n):
        rng = random.Random(47 + n)
        state = wide_state(rng, n, 300)
        ops = [field_operator(rng) for _ in range(n)]
        ops[-1] = LocalOperator([[Fraction(rng.getrandbits(300), rng.getrandbits(300) | 1), 1], [-1, 2]])
        self.check(state, ops)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_zero_state(self, n):
        rng = random.Random(53 + n)
        ops = [field_operator(rng) for _ in range(n)]
        assert apply_local(PureState.zero(n), ops).is_zero
        self.check(PureState.zero(n), ops)

    @pytest.mark.parametrize("qubit", [1, 3, 4])
    def test_operator_that_annihilates_the_state(self, qubit):
        # A dense state whose qubit ``qubit`` carries the factor (x0, x1); the
        # other operators grow the lanes before or after the one that cancels them all.
        rng = random.Random(59 + qubit)
        x0, x1 = nonzero_field_scalar(rng), nonzero_field_scalar(rng)
        rest = [nonzero_field_scalar(rng) for _ in range(8)]
        amps = {}
        for index in range(16):
            bit = index >> (4 - qubit) & 1
            others = (index >> (5 - qubit) << (4 - qubit)) | (index & ((1 << (4 - qubit)) - 1))
            amps[index] = (x1 if bit else x0) * rest[others]
        state = PureState(4, amps)
        ops = [field_operator(rng) for _ in range(4)]
        ops[qubit - 1] = annihilator(x0, x1)
        assert kron_applied(state, ops) == {}
        self.check(state, ops)
        assert apply_local(state, ops).is_zero

    def test_zero_operator(self):
        rng = random.Random(61)
        state = field_state(rng, 3, 8)
        ops = [field_operator(rng), LocalOperator(((0, 0), (0, 0))), field_operator(rng)]
        assert apply_local(state, ops).is_zero
        self.check(state, ops)

    @pytest.mark.parametrize("amplitude", [15, -15])
    def test_sign_bit_decides_the_lane_width(self, amplitude):
        # mu of the amplitudes is 15 (4 bits) and each operator's growth is
        # 1 + 2 = 3 (2 bits): 8 bits before the sign bit, a whole byte.  Every
        # result is 15 * 3 * 3 = 135 >= 2^7, so a lane of 8 bits cannot hold it.
        state = PureState(2, {k: amplitude for k in range(4)})
        op = LocalOperator(((1, 2), (2, 1)))
        self.check(state, [op, op])
        assert dict(apply_local(state, [op, op]).amps) == {k: Scalar(9 * amplitude) for k in range(4)}


def test_no_scalar_arithmetic_in_the_transforms(monkeypatch):
    rng = random.Random(67)
    state = field_state(rng, 4, 16)
    ops = [field_operator(rng) for _ in range(4)]
    ops[1] = field_singular_operator(rng)
    sigma = QubitPermutation(((1, 3),))
    want_amps, want_matrix = kron_applied(state, ops), predicted_oracle(state, ops, sigma)
    assert want_amps and want_matrix

    def refuse(*args):
        raise AssertionError("Scalar arithmetic inside a transform")

    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "inverse"):
        monkeypatch.setattr(Scalar, name, refuse)
    assert dict(apply_local(state, ops).amps) == want_amps
    assert _predicted_matrix(state, ops, sigma) == want_matrix


class TestMatrixEquation:
    def test_identity_ops_any_sigma(self):
        state = ladder_state(4, 2)
        for sigma in enumerate_sigmas(4):
            assert verify_matrix_equation(state, identity_ops(4), sigma)

    def test_random_singular_ops_default_split(self):
        rng = random.Random(101)
        for _ in range(10):
            state = random_state(rng, 4)
            ops = random_local_ops(4, rng.randrange(2**32))
            ops[rng.randrange(4)] = random_singular_operator(rng)
            assert verify_matrix_equation(state, ops)

    def test_random_invertible_ops_with_swap(self):
        rng = random.Random(103)
        sigma = QubitPermutation(((1, 4),))
        for _ in range(10):
            state = random_state(rng, 5)
            ops = random_invertible_ops(5, rng.randrange(2**32))
            assert verify_matrix_equation(state, ops, sigma)

    def test_every_enumerated_sigma_on_small_states(self):
        rng = random.Random(107)
        for n in (2, 3, 4):
            for _ in range(3):
                state = random_state(rng, n)
                ops = random_local_ops(n, rng.randrange(2**32))
                for sigma in enumerate_sigmas(n):
                    assert verify_matrix_equation(state, ops, sigma)

    def test_single_qubit_edge_case(self):
        state = PureState(1, {0: 1, 1: Scalar(-2)})
        ops = [LocalOperator(((1, 2), (3, 4)))]
        assert verify_matrix_equation(state, ops)

    def test_identity_cut_catches_a_corrupted_pass(self, monkeypatch):
        # One pass's plane arithmetic goes wrong: 1 is added to lane 0 of
        # plane 0 after the pass over the top bit.  The two sides make their
        # passes in opposite orders, so the fault does not cancel.
        mode_product = sloccrank.slocc._mode_product

        def corrupted(planes, rows, bias, count, width, block):
            planes = mode_product(planes, rows, bias, count, width, block)
            if 2 * block == count:
                planes[0] += 1
            return planes

        monkeypatch.setattr(sloccrank.slocc, "_mode_product", corrupted)
        assert not verify_matrix_equation(dicke_state(4, 2), random_invertible_ops(4, 1))


class TestDetRelation:
    def test_identity_ops_keep_det(self):
        state = ladder_state(4, 2)
        assert verify_det_relation(state, identity_ops(4))

    def test_scaling_exponent(self):
        # doubling one qubit's operator scales the det by det(2*Id)^2 = 16
        state = ladder_state(4, 2)
        double = LocalOperator(((2, 0), (0, 2)))
        ops = [double] + identity_ops(3)
        before = exact_det(coefficient_matrix(state))
        after = exact_det(coefficient_matrix(apply_local(state, ops)))
        assert after == before * Scalar(16)
        assert verify_det_relation(state, ops)

    def test_random_ops_six_qubits(self):
        rng = random.Random(109)
        state = ladder_state(6, 2)
        for _ in range(5):
            ops = random_local_ops(6, rng.randrange(2**32))
            assert verify_det_relation(state, ops)

    def test_odd_n_rejected(self):
        with pytest.raises(ShapeError):
            verify_det_relation(ghz_state(5), identity_ops(5))
        with pytest.raises(ShapeError):
            verify_det_relation(ghz_state(5), identity_ops(4))


@pytest.mark.parametrize("check", [verify_matrix_equation, verify_det_relation])
def test_operator_count_mismatch(check):
    with pytest.raises(ValueError, match="need exactly 4 operators, got 3"):
        check(ghz_state(4), identity_ops(3))


@pytest.mark.parametrize("check", [apply_local, verify_matrix_equation, verify_det_relation])
@pytest.mark.parametrize("other", [1, ANY], ids=["int", "ANY"])
def test_operator_type_checked_before_the_kept_image(check, other):
    # ANY equals every operator: read before the check, the kept image would answer.
    state = ghz_state(2)
    apply_local(state, identity_ops(2))
    with pytest.raises(TypeError, match="operator 1: expected a LocalOperator, got "):
        check(state, [LocalOperator.identity(), other])


def count_calls(monkeypatch, name):
    """The list that gains one item per call of ``sloccrank.slocc.<name>`` from now on."""
    calls = []
    real = getattr(sloccrank.slocc, name)
    monkeypatch.setattr(sloccrank.slocc, name, lambda *args: calls.append(1) or real(*args))
    return calls


class TestKeptResults:
    """A state keeps its last ``apply_local`` image and the determinant of its identity cut."""

    def test_repeat_operators_return_the_kept_image(self, monkeypatch):
        state = full_support_state(random.Random(71), 4)
        ops = random_invertible_ops(4, 7)
        transforms = count_calls(monkeypatch, "_transform")
        first = apply_local(state, ops)
        assert apply_local(state, ops) is first
        assert apply_local(state, random_invertible_ops(4, 7)) is first  # equal, built apart
        assert len(transforms) == 1

    @pytest.mark.parametrize("change", ["one entry", "order"])
    def test_other_operators_transform_again(self, monkeypatch, change):
        state = full_support_state(random.Random(73), 4)
        ops = random_invertible_ops(4, 9)
        first = apply_local(state, ops)
        if change == "order":
            other = ops[::-1]
        else:
            (a, b), row = ops[2].entries
            other = ops[:2] + [LocalOperator(((a + 1, b), row))] + ops[3:]
        transforms = count_calls(monkeypatch, "_transform")
        image = apply_local(state, other)
        assert len(transforms) == 1
        assert image != first
        assert image == apply_local(PureState(4, state.amps), other)

    def test_a_failed_transform_keeps_nothing(self, monkeypatch):
        def fail(*args):
            raise MemoryError

        state = ladder_state(4, 2)
        monkeypatch.setattr(sloccrank.slocc, "_transform", fail)
        with pytest.raises(MemoryError):
            apply_local(state, identity_ops(4))
        assert state._image is None

    def test_every_swap_set_shares_one_image(self, monkeypatch):
        state = full_support_state(random.Random(79), 6)
        ops = random_invertible_ops(6, 11)
        sigmas = enumerate_sigmas(6)
        transforms = count_calls(monkeypatch, "_transform")
        assert all(verify_matrix_equation(state, ops, sigma) for sigma in sigmas)
        # one image, then one right side per swap set
        assert len(transforms) == 1 + len(sigmas)

    def test_det_relation_takes_the_base_determinant_once(self, monkeypatch):
        state = full_support_state(random.Random(83), 6)
        assert exact_det(coefficient_matrix(state))  # the law is not only 0 = 0
        dets = count_calls(monkeypatch, "exact_det")
        assert verify_det_relation(state, random_invertible_ops(6, 1))
        assert len(dets) == 2  # the base and the image
        assert verify_det_relation(state, random_invertible_ops(6, 2))
        assert len(dets) == 3  # the new image only
        assert verify_det_relation(state, random_invertible_ops(6, 2))
        assert len(dets) == 3  # the kept image kept its determinant


class TestVerifyTrials:
    def test_operators_applied_once_per_trial_and_base_computed_once(self, monkeypatch):
        calls = {"apply_local": 0, "exact_rank": 0, "exact_det": 0}
        for name in calls:
            module = sloccrank.classify if name == "exact_rank" else sloccrank.slocc
            def counted(*args, _name=name, _real=getattr(module, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(module, name, counted)
        checks = verify_trials(ladder_state(4, 2), 3, seed=1)
        assert all(check["failures"] == 0 for check in checks.values())
        # 3 cuts of 4 qubits; the untransformed state is ranked once, each trial once more
        assert calls == {"apply_local": 3, "exact_rank": 3 * 4, "exact_det": 1 + 3}

    def test_rank_check_ranks_the_transformed_state(self, monkeypatch):
        # GHZ has rank 2 on every cut, the ladder state rank 4 on the identity cut: a rank
        # check that ranked anything but apply_local's result would see no difference.
        monkeypatch.setattr(sloccrank.slocc, "apply_local", lambda state, ops: ladder_state(state.n, 2))
        for allow_singular, check in ((False, "rank_invariance"), (True, "rank_monotonicity")):
            checks = verify_trials(ghz_state(4), 3, seed=1, allow_singular=allow_singular)
            assert checks[check] == {"runs": 3, "failures": 3}

    def test_each_state_is_scaled_once_for_all_its_cuts(self, monkeypatch):
        scaled, ranked = [], []
        real_scaled, real_rank = sloccrank.rank._Scaled, sloccrank.classify.exact_rank
        monkeypatch.setattr(sloccrank.rank, "_Scaled", lambda *args: scaled.append(1) or real_scaled(*args))
        monkeypatch.setattr(sloccrank.classify, "exact_rank", lambda cut: ranked.append(cut) or real_rank(cut))
        verify_trials(ladder_state(4, 2), 3, seed=1)
        assert len(scaled) == 1 + 3
        # 3 cuts per state, the untransformed one first: each state's cuts share one scaling
        assert len(ranked) == 3 * 4
        assert [len({id(cut._scaled) for cut in ranked[k:k + 3]}) for k in range(0, 12, 3)] == [1] * 4
        assert len({id(cut._scaled) for cut in ranked}) == 4 and ranked[0]._scaled is not None

    def test_equation_checked_under_identity_and_the_drawn_swap_set(self, monkeypatch):
        seen = []
        real = sloccrank.slocc._predicted_matrix
        monkeypatch.setattr(sloccrank.slocc, "_predicted_matrix",
                            lambda state, ops, sigma: seen.append(sigma) or real(state, ops, sigma))
        verify_trials(ladder_state(6, 2), 4, seed=2)
        # Each trial draws its operator seed, then its swap set, from one Random(seed).
        sigmas = enumerate_sigmas(6)
        master = random.Random(2)
        drawn = []
        for _ in range(4):
            master.randrange(2**32)
            drawn.append(sigmas[master.randrange(len(sigmas))])
        assert any(not sigma.is_identity for sigma in drawn)
        assert seen == [s for sigma in drawn for s in (QubitPermutation(), sigma)]

    @pytest.mark.parametrize("n, reads", [(5, 0), (6, 1 + 3)])
    def test_only_determinants_lay_a_cut_out(self, monkeypatch, n, reads):
        # The equation compares maps of nonzero entries; only exact_det reads
        # CoeffMatrix.entries: the base determinant, then one per trial.
        state = ladder_state(n, 2)
        laid_out = []
        real = CoeffMatrix.entries
        monkeypatch.setattr(CoeffMatrix, "entries", property(lambda self: laid_out.append(1) or real.fget(self)))
        assert verify_matrix_equation(state, random_invertible_ops(n, 5), enumerate_sigmas(n)[-1])
        assert laid_out == []
        checks = verify_trials(state, 3, seed=1)
        assert all(check["failures"] == 0 for check in checks.values())
        assert len(laid_out) == reads

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trial_count_below_one_raises(self, trials):
        with pytest.raises(ValueError, match="at least 1"):
            verify_trials(ghz_state(4), trials, 0)

    @pytest.mark.parametrize("state, det_runs", [
        (PureState(1, {0: 1, 1: Scalar(-2)}), 0),
        (ladder_state(5, 2), 0),
        (ghz_state(4), 2),
    ])
    @pytest.mark.parametrize("allow_singular", [False, True])
    def test_all_checks_pass(self, state, det_runs, allow_singular):
        rank_check = "rank_monotonicity" if allow_singular else "rank_invariance"
        assert verify_trials(state, 2, seed=3, allow_singular=allow_singular) == {
            "matrix_equation": {"runs": 4, "failures": 0},
            rank_check: {"runs": 2, "failures": 0},
            "det_relation": {"runs": det_runs, "failures": 0},
        }


class TestRandomOperators:
    def test_reproducible(self):
        assert random_invertible_ops(3, 42) == random_invertible_ops(3, 42)
        assert random_local_ops(4, 7) == random_local_ops(4, 7)

    def test_all_invertible(self):
        for seed in range(10):
            for op in random_invertible_ops(4, seed):
                assert op.is_invertible

    def test_seeds_differ(self):
        assert random_invertible_ops(3, 42) != random_invertible_ops(3, 43)


class TestRankUnderOperators:
    def test_invariance_under_invertible_ops(self):
        rng = random.Random(113)
        for trial in range(30):
            n = 3 + trial % 4
            state = random_state(rng, n)
            sigmas = enumerate_sigmas(n)
            before = [exact_rank(coefficient_matrix(state, s)).rank for s in sigmas]
            transformed = apply_local(state, random_invertible_ops(n, rng.randrange(2**32)))
            after = [exact_rank(coefficient_matrix(transformed, s)).rank for s in sigmas]
            assert before == after

    def test_monotone_under_arbitrary_ops(self):
        rng = random.Random(127)
        for trial in range(30):
            n = 3 + trial % 4
            state = random_state(rng, n)
            ops = random_local_ops(n, rng.randrange(2**32))
            if trial % 3 == 0:
                ops[rng.randrange(n)] = random_singular_operator(rng)
            sigmas = enumerate_sigmas(n)
            transformed = apply_local(state, ops)
            for sigma in sigmas:
                before = exact_rank(coefficient_matrix(state, sigma)).rank
                after = exact_rank(coefficient_matrix(transformed, sigma)).rank
                assert after <= before


class TestOperatorFiles:
    def test_json_round_trip(self):
        ops = random_invertible_ops(3, 5)
        assert operators_from_json(operators_to_json(ops)) == ops

    def test_file_round_trip(self, tmp_path):
        ops = random_local_ops(4, 9)
        path = tmp_path / "ops.json"
        save_operators(ops, path)
        assert load_operators(path) == ops

    @pytest.mark.parametrize("text, message", [
        ('{"ops": [[["1", "0"], ["0", ' + "1" * 5000 + ']]]}', "Exceeds the limit"),
        ("not json", "Expecting value"),
    ], ids=["over-long-integer", "bad-syntax"])
    def test_unreadable_file_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "ops.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"operator file is not valid JSON: {message}"):
            load_operators(path)

    def test_deeply_nested_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(ValueError, match="nested too deeply"):
            load_operators(path)

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"ops": []},
            {"ops": [[["1", "0"], ["0"]]]},
            {"ops": [[["1", "0"], ["0", "bad+"]]]},
            {"ops": [[[1, 0], [0, 1]]]},
            {"ops": "nope"},
        ],
    )
    def test_malformed_payloads(self, payload):
        with pytest.raises(ValueError):
            operators_from_json(payload)
