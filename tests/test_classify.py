"""Signatures, family assignment, Dicke scans, and table reproduction."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import comb

import pytest

import sloccrank.classify
from sloccrank.classify import (
    DickeScanRow,
    FamilySignature,
    classify_table,
    dicke_rank_scan,
    family_of,
    rank_signature,
)
from sloccrank.classify import _REGIONS, _TABLES
from sloccrank.coeffmatrix import IDENTITY, QubitPermutation, coefficient_matrix, enumerate_sigmas
from sloccrank.rank import exact_rank
from sloccrank.slocc import apply_local, random_invertible_ops
from sloccrank.states import PureState, basis_state, dicke_state, family_state, ghz_state, ladder_state

from conftest import random_product_state

SWAP_14 = QubitPermutation(((1, 4),))


class TestSignature:
    def test_l_a2b2_generic(self):
        sig = rank_signature(family_state("L_a2b2", a=1, b=2), (IDENTITY, SWAP_14))
        assert sig.ranks == (4, 3)

    def test_span_both_zero(self):
        state = family_state("span_0kPsi", alpha=0, beta=0)
        assert rank_signature(state, (IDENTITY, SWAP_14)).ranks == (1, 2)

    def test_ghz4_full_enumeration(self):
        assert rank_signature(ghz_state(4), enumerate_sigmas(4)).ranks == (2, 2, 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FamilySignature((IDENTITY,), (1, 2))

    def test_equal_signatures_compare_and_hash_equal(self):
        first = rank_signature(ghz_state(4), enumerate_sigmas(4))
        second = FamilySignature(tuple(enumerate_sigmas(4)), (2, 2, 2))
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1
        assert first != FamilySignature(tuple(enumerate_sigmas(4)), (2, 2, 1))

    def test_fields_cannot_be_assigned(self):
        sig = rank_signature(ghz_state(4), enumerate_sigmas(4))
        with pytest.raises(AttributeError):
            sig.ranks = (1, 1, 1)
        with pytest.raises(AttributeError):
            sig.extra = None
        assert sig.ranks == (2, 2, 2)


class TestFamilyOf:
    def test_separable(self):
        assert family_of(basis_state(5, 7)) == 1

    def test_dicke(self):
        assert family_of(dicke_state(7, 3)) == 4

    def test_ladder(self):
        assert family_of(ladder_state(6, 3)) == 5


class TestDickeScan:
    def test_four_qubits(self):
        assert dicke_rank_scan(4) == [
            DickeScanRow(1, 2, 2, (1, 2)),
            DickeScanRow(2, 3, 3, (1, 2, 1)),
        ]

    def test_two_qubits(self):
        assert dicke_rank_scan(2) == [DickeScanRow(1, 2, 2, (1, 1))]

    def test_seven_qubits_rank_column(self):
        rows = dicke_rank_scan(7)
        assert [row.rank for row in rows] == [2, 3, 4]
        assert rows[2].row_multiplicities == (1, 3, 3, 1)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_structure_matches_combinatorics(self, n):
        for row in dicke_rank_scan(n):
            assert row.rank == row.ell + 1
            assert row.distinct_nonzero_rows == row.ell + 1
            assert row.row_multiplicities == tuple(comb(n // 2, j) for j in range(row.ell + 1))

    @pytest.mark.parametrize("n, change", [
        (4, {12: 1}),  # row 3 repeats rows 1 and 2, at weight 2
        (4, {8: 2}),  # rows 1 and 2 differ, both at weight 1
        (6, {32: 0}),  # row 4 is zero: weight 1 holds two rows, not C(3, 1) = 3
    ])
    def test_broken_row_structure_at_the_right_rank_raises(self, monkeypatch, n, change):
        def perturbed(m, ell):
            state = dicke_state(m, ell)
            if (m, ell) != (n, 1):
                return state
            amps = {**state.amps, **change}
            return PureState(m, {index: x for index, x in amps.items() if x})

        assert exact_rank(coefficient_matrix(perturbed(n, 1))).rank == 2
        monkeypatch.setattr(sloccrank.classify, "dicke_state", perturbed)
        with pytest.raises(RuntimeError, match=f"n={n} ell=1: rank structure mismatch"):
            dicke_rank_scan(n)

    def test_too_small(self):
        # One qubit has no ell in 1..n//2, so its scan is empty; zero qubits is no state.
        assert dicke_rank_scan(1) == []
        with pytest.raises(ValueError, match="qubit count"):
            dicke_rank_scan(0)


class TestInvariants:
    def test_signature_stable_under_invertible_ops(self):
        # 500 trials spread over every generator family, n <= 6
        rng = random.Random(20240818)
        generators = [
            lambda: basis_state(rng.choice((3, 4, 5, 6)), 0),
            lambda: ghz_state(rng.choice((3, 4, 5, 6))),
            lambda: dicke_state(5, rng.choice((1, 2))),
            lambda: dicke_state(6, rng.choice((1, 2, 3))),
            lambda: ladder_state(4, rng.choice((1, 2))),
            lambda: ladder_state(6, rng.choice((1, 2, 3, 4, 5, 6))),
            lambda: family_state("L_a2b2", a=rng.randint(-2, 2), b=rng.randint(-2, 2)),
            lambda: family_state("L_ab3", a=rng.randint(-2, 2), b=rng.randint(-2, 2)),
            lambda: family_state(
                "L_abc2", a=rng.randint(-2, 2), b=rng.randint(-2, 2), c=rng.randint(-2, 2)
            ),
            lambda: family_state(
                "span_0kPsi", alpha=rng.randint(-2, 2), beta=rng.randint(-2, 2)
            ),
        ]
        for trial in range(500):
            state = generators[trial % len(generators)]()
            sigmas = enumerate_sigmas(state.n)
            before = rank_signature(state, sigmas).ranks
            ops = random_invertible_ops(state.n, rng.randrange(2**32))
            after = rank_signature(apply_local(state, ops), sigmas).ranks
            assert before == after

    def test_product_states_rank_one_everywhere(self):
        rng = random.Random(321)
        for trial in range(30):
            n = 2 + trial % 5
            state = random_product_state(rng, n)
            for sigma in enumerate_sigmas(n):
                assert rank_signature(state, (sigma,)).ranks == (1,)

    def test_entangled_witnesses_exceed_rank_one(self):
        witnesses = [ghz_state(n) for n in range(2, 9)]
        witnesses += [dicke_state(n, 1) for n in range(3, 9)]
        witnesses += [dicke_state(6, ell) for ell in (2, 3)]
        witnesses += [ladder_state(n, 1) for n in range(4, 8)]
        for state in witnesses:
            assert family_of(state) >= 2

    def test_dicke_signatures_pairwise_distinct(self):
        for n in range(4, 10):
            sigmas = enumerate_sigmas(n)
            signatures = [
                rank_signature(dicke_state(n, ell), sigmas).ranks
                for ell in range(1, n // 2 + 1)
            ]
            assert len(set(signatures)) == len(signatures)


EXPECTED_CELLS = {
    "verstraete": {
        "a=b=0": (2, 1),
        "ab=0 & a≠b": (3, 3),
        "a=±b & a≠0": (4, 2),
        "ab≠0 & a≠±b": (4, 3),
    },
    "lamata": {
        "α=β=0": (1, 2),
        "α=β≠0": (1, 4),
        "αβ=0 & α≠β": (2, 3),
        "αβ≠0 & α≠β": (2, 4),
    },
    "chterental": {
        ("L_ab3", "∅"): (1,),
        ("L_ab3", "a=b=0"): (2,),
        ("L_ab3", "ab=0 & a≠b"): (3,),
        ("L_ab3", "ab≠0"): (4,),
        ("L_abc2", "a=b=0"): (1,),
        ("L_abc2", "a=0 & b≠0"): (2,),
        ("L_abc2", "a≠0 & b=0"): (3,),
        ("L_abc2", "ab≠0"): (4,),
    },
}


def _groups():
    for table, (_, groups) in _TABLES.items():
        for family, names, _, cells in groups:
            yield f"{table}/{family or names[0]}", [region for region, _ in cells]


# The values an unconstrained draw takes (k/d, |k| <= 2, d <= 2) and those a
# cell draw takes besides 0 (k/d, 1 <= |k| <= 3, d <= 3).
UNCONSTRAINED_VALUES = sorted({Fraction(k, d) for k in range(-2, 3) for d in (1, 2)})
CELL_VALUES = sorted({Fraction(k, d) for k in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)})


class TestRegions:
    """Within each group, the listed regions partition the parameter plane."""

    @pytest.mark.parametrize("region", sorted(_REGIONS))
    @pytest.mark.parametrize("values", [UNCONSTRAINED_VALUES, [Fraction(0), *CELL_VALUES]],
                             ids=["unconstrained", "cell"])
    def test_membership_is_homogeneous(self, region, values):
        # classify_table holds a point (x, y) as the ints (6x, 6y), so each
        # test must read the same on any multiple of the point
        inside = _REGIONS[region][0]
        for x in values:
            for y in values:
                expected = inside(x, y)
                assert inside(int(6 * x), int(6 * y)) == expected, (region, x, y)
                for k in (2, 3, 6):
                    assert inside(k * x, k * y) == expected, (region, x, y, k)

    @pytest.mark.parametrize("region", sorted(_REGIONS))
    def test_draws_are_ints_over_6(self, region):
        draw = _REGIONS[region][1]
        if draw is None:
            return
        rng = random.Random(region)
        for _ in range(200):
            point = draw(rng)
            assert len(point) == 2 and all(type(v) is int for v in point), (region, point)
            assert {Fraction(v, 6) for v in point} <= {Fraction(0), *CELL_VALUES}, (region, point)

    @pytest.mark.parametrize("group, regions", list(_groups()))
    def test_each_draw_lies_in_its_own_region_only(self, group, regions):
        rng = random.Random(group)
        for region in regions:
            draw = _REGIONS[region][1]
            if draw is None:
                continue
            for _ in range(200):
                point = draw(rng)
                inside = [other for other in regions if _REGIONS[other][0](*point)]
                assert inside == [region], (region, point)

    @pytest.mark.parametrize("group, regions", list(_groups()))
    def test_unconstrained_grid_matches_exactly_one_nonempty_cell(self, group, regions):
        for x in UNCONSTRAINED_VALUES:
            for y in UNCONSTRAINED_VALUES:
                inside = [region for region in regions if _REGIONS[region][0](x, y)]
                assert len(inside) == 1, (x, y, inside)
                assert _REGIONS[inside[0]][1] is not None, (x, y, inside)


class TestTables:
    @pytest.mark.parametrize("table", ["verstraete", "lamata", "chterental"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reproduction_passes(self, table, seed):
        report = classify_table(table, 5, seed)
        assert report.passed, report.to_json_dict()
        observed = {
            (cell.family, cell.region) if cell.family else cell.region: cell.signature
            for cell in report.cells
        }
        assert observed == EXPECTED_CELLS[table]

    def test_empty_cell_reported_with_zero_samples(self):
        report = classify_table("chterental", 2, 1)
        empty = [cell for cell in report.cells if cell.region == "∅"]
        assert len(empty) == 1
        assert empty[0].samples == 0
        assert empty[0].passed

    def test_unconstrained_hits_stay_in_listed_cells(self):
        for table in ("verstraete", "lamata"):
            report = classify_table(table, 5, 11)
            listed = {",".join(map(str, sig)) for sig in EXPECTED_CELLS[table].values()}
            assert set(report.unconstrained_hits) <= listed

    def test_verstraete_sign_boundary_point(self):
        state = family_state("L_a2b2", a=1, b=-1)
        assert rank_signature(state, (IDENTITY, SWAP_14)).ranks == (4, 2)

    def test_lamata_equal_nonzero_point(self):
        state = family_state("span_0kPsi", alpha=1, beta=1)
        assert rank_signature(state, (IDENTITY, SWAP_14)).ranks == (1, 4)

    def test_chterental_rank2_cells_coincide(self):
        # the two families both expose a rank-2 cell, so rank alone cannot
        # separate their representatives
        assert family_of(family_state("L_ab3", a=0, b=0)) == 2
        assert family_of(family_state("L_abc2", a=0, b=1, c=0)) == 2

    def test_json_shape(self):
        report = classify_table("verstraete", 1, 0)
        payload = report.to_json_dict()
        assert payload["table"] == "verstraete"
        assert list(payload["cells"][0]) == ["region", "signature", "samples", "pass"]
        assert isinstance(payload["unconstrained_hits"], dict)
        assert payload["pass"] is True

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            classify_table("unknown", 5, 0)
        with pytest.raises(ValueError):
            classify_table("lamata", 0, 0)


def _state_key(state) -> tuple:
    return state.n, tuple((index, value.coords) for index, value in state.amps.items())


@pytest.fixture
def ranked_states(monkeypatch) -> list:
    """Every state ``classify_table`` passes to ``rank_signature``, in call order."""
    states = []
    real = sloccrank.classify.rank_signature

    def recording(state, sigmas):
        states.append(_state_key(state))
        return real(state, sigmas)

    monkeypatch.setattr(sloccrank.classify, "rank_signature", recording)
    return states


class TestRepeatedPoints:
    """A point drawn again reuses its signature, yet every draw still counts."""

    @pytest.mark.parametrize("table, seed", [("verstraete", 0), ("lamata", 1), ("chterental", 2)])
    def test_each_state_ranked_once_and_each_draw_counted(self, ranked_states, table, seed):
        samples = 1000
        report = classify_table(table, samples, seed)
        assert report.passed
        assert len(ranked_states) == len(set(ranked_states))
        families = {cell.family for cell in report.cells}
        for family in families:
            prefix = f"{family}:" if family else ""
            hits = sum(count for key, count in report.unconstrained_hits.items() if key.startswith(prefix))
            assert hits == 10 * samples
        assert {cell.samples for cell in report.cells} <= {0, samples}

    def test_groups_drawing_the_same_point_rank_their_own_states(self, ranked_states):
        # both chterental groups draw (a, b) = (0, 0) for their x=y=0 cells
        report = classify_table("chterental", 1, 0)
        assert report.passed
        assert _state_key(family_state("L_ab3", a=0, b=0)) in ranked_states
        assert _state_key(family_state("L_abc2", a=0, b=0, c=0)) in ranked_states


def _tables_digest(samples_per_cell: tuple[int, ...] = (1, 5)) -> str:
    """sha256 of every table's JSON report for the given samples and seeds 0-9."""
    lines = [
        json.dumps(classify_table(table, samples, seed).to_json_dict())
        for table in ("chterental", "lamata", "verstraete")
        for samples in samples_per_cell
        for seed in range(10)
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestPinnedReports:
    """Reports, byte for byte, including the failure fields of a broken engine.

    A change to how regions are stated or sampled must leave these alone:
    the RNG draws stay in the same order, so each seed gives the same points.
    """

    def test_passing_reports(self):
        assert _tables_digest() == "09fb231f9f52dbeaefefde8dd5f2724b77e743847053dc50508ff55a4dafbff4"

    def test_passing_reports_at_eight_samples(self):
        # the sample count of a table-sweep benchmark item
        assert _tables_digest((8,)) == "9bb8f6d0fa4e1ffcfb0f85ac3268e2d32a04f2c7c5e7f0539ccc773ef68bedb3"

    def test_failing_reports(self, monkeypatch):
        # one less in the first rank fails every cell (witness), every
        # unconstrained draw (matched_regions) and, via L_ab3's rank-1 hits,
        # the empty cell
        real = sloccrank.classify.rank_signature

        def wrong(state, sigmas):
            signature = real(state, sigmas)
            ranks = (signature.ranks[0] - 1, *signature.ranks[1:])
            return FamilySignature(signature.sigmas, ranks)

        monkeypatch.setattr(sloccrank.classify, "rank_signature", wrong)
        assert _tables_digest() == "47b28806707f8487b665933a881922750898eadc2b6bb630dbf488eb531b21b8"
