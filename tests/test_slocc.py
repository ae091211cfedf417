"""Local-operator action and the exact transformation identities."""

from __future__ import annotations

import random

import pytest

import sloccrank.slocc
from sloccrank.coeffmatrix import QubitPermutation, coefficient_matrix, enumerate_sigmas
from sloccrank.rank import ShapeError, exact_det, exact_rank
from sloccrank.scalar import Scalar
from sloccrank.slocc import (
    LocalOperator,
    apply_local,
    kron_chain,
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
from sloccrank.states import PureState, ghz_state, ladder_state

from conftest import random_singular_operator, random_state

X = LocalOperator(((0, 1), (1, 0)))
P0 = LocalOperator(((1, 0), (0, 0)))


def identity_ops(n):
    return [LocalOperator.identity() for _ in range(n)]


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


class TestKron:
    def test_identity_pair(self):
        grid = kron_chain(identity_ops(2))
        for i in range(4):
            for j in range(4):
                assert grid[i][j] == (Scalar(1) if i == j else Scalar(0))

    def test_projector_with_flip(self):
        grid = kron_chain([P0, X])
        nonzero = {(i, j) for i in range(4) for j in range(4) if grid[i][j]}
        assert nonzero == {(0, 1), (1, 0)}

    def test_single_operator(self):
        assert kron_chain([X]) == X.entries

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kron_chain([])


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


class TestVerifyTrials:
    def test_operators_applied_once_per_trial_and_base_computed_once(self, monkeypatch):
        calls = {"apply_local": 0, "exact_rank": 0, "exact_det": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(sloccrank.slocc, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(sloccrank.slocc, name, counted)
        checks = verify_trials(ladder_state(4, 2), 3, seed=1)
        assert all(check["failures"] == 0 for check in checks.values())
        # 3 cuts of 4 qubits; the untransformed state is ranked once, each trial once more
        assert calls == {"apply_local": 3, "exact_rank": 3 * 4, "exact_det": 1 + 3}

    def test_each_state_is_scaled_once_for_all_its_cuts(self, monkeypatch):
        scaled, ranked = [], []
        real_scaled, real_rank = sloccrank.rank._Scaled, sloccrank.slocc.exact_rank
        monkeypatch.setattr(sloccrank.rank, "_Scaled", lambda *args: scaled.append(1) or real_scaled(*args))
        monkeypatch.setattr(sloccrank.slocc, "exact_rank", lambda cut: ranked.append(cut) or real_rank(cut))
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
