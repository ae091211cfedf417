"""State construction, named generators, and the JSON file format."""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

import pytest

from sloccrank.coeffmatrix import QubitPermutation, enumerate_sigmas, permute_state
from sloccrank.scalar import GaussRational, Scalar
from sloccrank.states import (
    MAX_QUBITS,
    PureState,
    StateFormatError,
    basis_state,
    dicke_state,
    family_state,
    ghz_state,
    ladder_state,
    load_state,
    save_state,
)


def amp_map(state):
    return {i: v for i, v in state.amps.items()}


class TestPureState:
    def test_zero_amplitudes_are_dropped(self):
        state = PureState(2, {0: 1, 3: Scalar(0)})
        assert set(state.amps) == {0}

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            PureState(2, {1: 0})

    def test_zero_variant(self):
        z = PureState.zero(3)
        assert z.is_zero
        assert z.amplitude(5) == Scalar(0)

    def test_index_range_checked(self):
        with pytest.raises(ValueError):
            PureState(2, {4: 1})

    def test_qubit_count_bounds(self):
        with pytest.raises(ValueError):
            PureState(0, {0: 1})
        with pytest.raises(ValueError):
            PureState(17, {0: 1})


class TestGenerators:
    def test_basis_examples(self):
        assert amp_map(basis_state(3, 0)) == {0: Scalar(1)}
        assert amp_map(basis_state(3, 5)) == {5: Scalar(1)}
        assert amp_map(basis_state(1, 1)) == {1: Scalar(1)}

    def test_basis_out_of_range(self):
        with pytest.raises(ValueError):
            basis_state(3, 8)

    def test_ghz(self):
        assert amp_map(ghz_state(3)) == {0: Scalar(1), 7: Scalar(1)}
        assert amp_map(ghz_state(2)) == {0: Scalar(1), 3: Scalar(1)}
        assert amp_map(ghz_state(4)) == {0: Scalar(1), 15: Scalar(1)}
        with pytest.raises(ValueError):
            ghz_state(1)

    def test_dicke_examples(self):
        assert amp_map(dicke_state(3, 1)) == {1: Scalar(1), 2: Scalar(1), 4: Scalar(1)}
        assert set(dicke_state(4, 2).amps) == {3, 5, 6, 9, 10, 12}
        assert amp_map(dicke_state(2, 1)) == {1: Scalar(1), 2: Scalar(1)}

    @pytest.mark.parametrize("n,ell", [(4, 1), (5, 2), (6, 3), (8, 2), (9, 4)])
    def test_dicke_term_count_and_equal_amplitudes(self, n, ell):
        state = dicke_state(n, ell)
        assert len(state.amps) == comb(n, ell)
        assert set(state.amps.values()) == {Scalar(1)}

    def test_dicke_range_errors(self):
        with pytest.raises(ValueError):
            dicke_state(4, 0)
        with pytest.raises(ValueError):
            dicke_state(4, 4)
        with pytest.raises(ValueError, match="qubit count"):
            dicke_state(MAX_QUBITS + 1, 1)

    def test_dicke_symmetric_under_qubit_swaps(self):
        for n in (4, 5, 6):
            state = dicke_state(n, 2)
            for sigma in enumerate_sigmas(n):
                assert permute_state(state, sigma) == state
            # also swaps that pair two row bits, which are never enumerated
            assert permute_state(state, QubitPermutation(((1, 2),))) == state

    def test_ladder_examples(self):
        assert amp_map(ladder_state(4, 1)) == {0: Scalar(1), 15: Scalar(-1), 5: Scalar(1)}
        assert amp_map(ladder_state(4, 2)) == {
            0: Scalar(1), 15: Scalar(-1), 5: Scalar(1), 10: Scalar(1)
        }
        assert amp_map(ladder_state(5, 2)) == {
            0: Scalar(1), 31: Scalar(-1), 9: Scalar(1), 18: Scalar(1)
        }

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_ladder_term_count(self, n):
        top = (1 << (n // 2)) - 2
        for r in range(1, top + 1):
            assert len(ladder_state(n, r).amps) == r + 2

    def test_ladder_range_errors(self):
        with pytest.raises(ValueError):
            ladder_state(3, 1)
        with pytest.raises(ValueError):
            ladder_state(4, 3)
        with pytest.raises(ValueError):
            ladder_state(4, 0)
        with pytest.raises(ValueError, match="qubit count"):
            ladder_state(MAX_QUBITS + 2, 1)


class TestFamilies:
    def test_l_a2b2_degenerate_point(self):
        state = family_state("L_a2b2", a=0, b=0)
        assert amp_map(state) == {3: Scalar(1), 6: Scalar(1)}

    def test_span_example(self):
        state = family_state("span_0kPsi", alpha=1, beta=2)
        assert amp_map(state) == {0: Scalar(1), 12: Scalar(1), 3: Scalar(1), 15: Scalar(2)}

    def test_l_abc2_equal_parameters(self):
        state = family_state("L_abc2", a=1, b=1, c=1)
        assert amp_map(state) == {
            0: Scalar(1), 15: Scalar(1), 5: Scalar(1), 10: Scalar(1), 6: Scalar(1)
        }

    def test_l_ab3_hand_expansion(self):
        state = family_state("L_ab3", a=1, b=0)
        half = Scalar(Fraction(1, 2))
        w = Scalar(0, GaussRational(0, Fraction(1, 2)))
        expected = {0: Scalar(1), 15: Scalar(1), 5: half, 10: half, 6: half, 9: half,
                    1: w, 2: w, 7: w, 11: w}
        assert amp_map(state) == expected

    def test_l_ab3_zero_point_keeps_fixed_terms(self):
        state = family_state("L_ab3", a=0, b=0)
        assert set(state.amps) == {1, 2, 7, 11}

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            family_state("L_nope", a=1)

    def test_missing_parameter(self):
        with pytest.raises(ValueError):
            family_state("L_a2b2", a=1)

    def test_unexpected_parameter(self):
        with pytest.raises(ValueError):
            family_state("span_0kPsi", alpha=1, beta=2, c=3)


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ghz3.json"
        state = ghz_state(3)
        save_state(state, path)
        assert load_state(path) == state

    def test_round_trip_with_sqrt2_amplitudes(self, tmp_path):
        path = tmp_path / "fam.json"
        state = family_state("L_ab3", a=Fraction(2, 3), b=-1)
        save_state(state, path)
        assert load_state(path) == state

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "amplitudes": [{"index": 8, "value": "1"}]}))
        with pytest.raises(StateFormatError):
            load_state(path)

    def test_explicit_zero_rejected(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(
            json.dumps({"n": 2, "amplitudes": [{"index": 0, "value": "1"},
                                               {"index": 1, "value": "0"}]})
        )
        with pytest.raises(StateFormatError):
            load_state(path)

    def test_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            json.dumps({"n": 2, "amplitudes": [{"index": 1, "value": "1"},
                                               {"index": 1, "value": "2"}]})
        )
        with pytest.raises(StateFormatError):
            load_state(path)

    def test_decreasing_index_rejected(self, tmp_path):
        path = tmp_path / "order.json"
        path.write_text(
            json.dumps({"n": 2, "amplitudes": [{"index": 2, "value": "1"},
                                               {"index": 0, "value": "1"}]})
        )
        with pytest.raises(StateFormatError):
            load_state(path)

    def test_empty_amplitudes_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 2, "amplitudes": []}))
        with pytest.raises(StateFormatError):
            load_state(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"n": 2, "amplitudes": [{"index": 0, "value": "1"}],
                                    "comment": "hi"}))
        with pytest.raises(StateFormatError):
            load_state(path)

    def test_bad_scalar_rejected(self, tmp_path):
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps({"n": 2, "amplitudes": [{"index": 0, "value": "1+"}]}))
        with pytest.raises(StateFormatError):
            load_state(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        with pytest.raises(StateFormatError):
            load_state(path)

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(StateFormatError, match="nested too deeply"):
            load_state(path)

    def test_zero_state_not_serializable(self, tmp_path):
        with pytest.raises(StateFormatError):
            save_state(PureState.zero(2), tmp_path / "z.json")
