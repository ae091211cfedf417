"""State construction, named generators, and the JSON file format."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb

import pytest

from sloccrank.coeffmatrix import QubitPermutation, coefficient_matrix, enumerate_sigmas
from sloccrank.scalar import GaussRational, Scalar, scalar_format, scalar_parse
from sloccrank.slocc import LocalOperator, apply_local, random_invertible_ops
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


# One text for each shape scalar_format can print: integers, fractions, pure
# imaginaries, Gaussian values, and sqrt2 parts with and without parentheses.
EVERY_SCALAR_FORM = [
    "1", "-1", "7/3", "-2/5", "i", "-i", "3i", "-1/2i", "1+i", "2/3-i", "-1+5/7i",
    "s2", "-s2", "1/2*s2", "i*s2", "-i*s2", "(1+i)*s2", "(2/3-i)*s2", "1+s2", "1-s2",
    "i+s2", "1/2-3/4i+(1-i)*s2", "-1/3*s2", "-5/7i-(1+2i)*s2",
]


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

    def test_amplitudes_are_read_only(self):
        # A state keeps results derived from its amplitudes, so they cannot change under it.
        given = {0: 1, 3: 2}
        state = PureState(2, given)
        with pytest.raises(TypeError):
            state.amps[1] = Scalar(1)
        with pytest.raises(TypeError):
            del state.amps[0]
        given[1] = 5
        assert list(state.amps.items()) == [(0, Scalar(1)), (3, Scalar(2))]
        assert state == PureState(2, {3: 2, 0: 1}) != PureState(2, {0: 1, 3: 3})


class TestIndexOrder:
    """``amps`` holds its indices in ascending order, however the state was made."""

    @staticmethod
    def assert_ascending(state):
        indices = list(state.amps)
        assert indices == sorted(indices)

    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_dict(self, seed):
        rng = random.Random(seed)
        indices = rng.sample(range(1 << 6), 20)
        state = PureState(6, {index: rng.randint(1, 9) for index in indices})
        assert list(state.amps) == sorted(indices)

    def test_apply_local(self):
        # A diagonal operator keeps the support; its intermediate maps are
        # built in set order, which here is not ascending.
        sparse = PureState(6, {34: 1, 3: 2, 17: 1, 60: 2})
        self.assert_ascending(apply_local(sparse, [LocalOperator([[1, 0], [0, 2]])] * 6))
        dense = apply_local(sparse, random_invertible_ops(6, 3))
        assert len(dense.amps) == 1 << 6
        self.assert_ascending(dense)

    def test_family_literal_out_of_order(self):
        state = family_state("L_ab3", a=Fraction(2, 3), b=-1)
        assert list(state.amps) == [0, 1, 2, 5, 6, 7, 9, 10, 11, 15]

    def test_file_round_trip_keeps_order_and_bytes(self, tmp_path):
        rng = random.Random(7)
        indices = rng.sample(range(1 << 5), 12)
        state = PureState(5, {index: Scalar(rng.randint(1, 9), rng.randint(-3, 3)) for index in indices})
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_state(state, first)
        loaded = load_state(first)
        assert list(loaded.amps) == list(state.amps) == sorted(indices)
        save_state(loaded, second)
        assert second.read_bytes() == first.read_bytes()


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

    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_dicke_needs_two_qubits(self, ell):
        with pytest.raises(ValueError, match="^Dicke states need at least 2 qubits$"):
            dicke_state(1, ell)

    def test_dicke_symmetric_under_qubit_swaps(self):
        # a symmetric state is its own relabeling, so every cut has the same matrix
        for n in (4, 5, 6):
            state = dicke_state(n, 2)
            default = coefficient_matrix(state).entries
            for sigma in enumerate_sigmas(n):
                assert coefficient_matrix(state, sigma).entries == default
            # also swaps that pair two row bits, which are never enumerated
            assert coefficient_matrix(state, QubitPermutation(((1, 2),))).entries == default

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

    def test_over_long_literal_rejected(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"n": 2, "amplitudes": [{"index": 0, "value": "1" * 5000}]}))
        with pytest.raises(StateFormatError, match="amplitude 0: bad scalar .*too many digits"):
            load_state(path)

    @pytest.mark.parametrize("key", ["n", "index"])
    def test_over_long_integer_rejected(self, tmp_path, key):
        # json.load itself raises ValueError on an integer over the int-string limit
        fields = {"n": "2", "index": "0", key: "1" * 5000}
        path = tmp_path / "long.json"
        path.write_text(f'{{"n": {fields["n"]}, "amplitudes": [{{"index": {fields["index"]}, "value": "1"}}]}}')
        with pytest.raises(StateFormatError, match="not valid JSON: Exceeds the limit"):
            load_state(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        with pytest.raises(StateFormatError, match="^not valid JSON: Expecting value"):
            load_state(path)

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(StateFormatError, match="^not valid JSON: nested too deeply$"):
            load_state(path)

    @pytest.mark.parametrize("text, message", [
        ('[{"n": 2}]', "^top level must be a JSON object$"),
        ('"n"', "^top level must be a JSON object$"),
        ('{"n": "4", "amplitudes": []}', "^'n': qubit count must be an int in 1..16, got '4'$"),
        ('{"n": 17, "amplitudes": []}', "^'n': qubit count must be an int in 1..16, got 17$"),
        ('{"amplitudes": [{"index": 0, "value": "1"}]}',
         "^'n': qubit count must be an int in 1..16, got None$"),
        ('{"n": 2, "amplitudes": [{"index": 0, "value": "1"}, "1"]}',
         "^amplitude 1: expected an object with index and value$"),
        ('{"n": 2, "amplitudes": [{"index": 0}]}', "^amplitude 0: expected an object with index and value$"),
        ('{"n": 2, "amplitudes": [{"index": 0, "value": "1", "x": 0}]}',
         "^amplitude 0: expected an object with index and value$"),
        ('{"n": 2, "amplitudes": [{"index": "0", "value": "1"}]}', "^amplitude 0: index must be an integer$"),
        ('{"n": 2, "amplitudes": [{"index": true, "value": "1"}]}', "^amplitude 0: index must be an integer$"),
        ('{"n": 2, "amplitudes": [{"index": 1.5, "value": "1"}]}', "^amplitude 0: index must be an integer$"),
        ('{"n": 2, "amplitudes": [{"index": 0, "value": 1}]}', "^amplitude 0: value must be a string$"),
        ('{"n": 2, "amplitudes": [{"index": 0, "value": null}]}', "^amplitude 0: value must be a string$"),
    ], ids=["top-array", "top-string", "n-string", "n-17", "n-missing", "amplitude-string", "amplitude-no-value",
            "amplitude-extra-key", "index-string", "index-bool", "index-float", "value-int", "value-null"])
    def test_every_schema_rejection_names_its_cause(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(StateFormatError, match=message):
            load_state(path)

    @pytest.mark.parametrize("state", [
        PureState(5, {k: scalar_parse(text) for k, text in enumerate(EVERY_SCALAR_FORM)}),
        PureState(1, {1: scalar_parse("-1/2i")}),
        PureState(1, {0: 1, 1: scalar_parse("(1-i)*s2")}),
        ghz_state(16),
        ladder_state(8, 3),
        family_state("L_ab3", a=Fraction(2, 3), b=-1),
        apply_local(dicke_state(10, 3), random_invertible_ops(10, 4)),
    ], ids=["every-form", "n1-one-term", "n1-dense", "ghz16", "ladder8", "L_ab3", "dense10"])
    def test_bytes_equal_json_dump_with_indent(self, tmp_path, state):
        payload = {"n": state.n, "amplitudes": [
            {"index": index, "value": scalar_format(value)} for index, value in state.amps.items()
        ]}
        with open(tmp_path / "reference.json", "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        save_state(state, tmp_path / "saved.json")
        assert (tmp_path / "saved.json").read_bytes() == (tmp_path / "reference.json").read_bytes()

    def test_zero_state_not_serializable(self, tmp_path):
        with pytest.raises(StateFormatError):
            save_state(PureState.zero(2), tmp_path / "z.json")
