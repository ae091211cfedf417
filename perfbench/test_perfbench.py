"""Tests of the benchmark's own checker and checks.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
import modp  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import sloccrank as S  # noqa: E402


def cut_ranks(amps: dict, n: int) -> list[int]:
    images = inputs.to_modp(amps)
    return [modp.rank(modp.reshape(images, n, rows)) for rows in inputs.bipartitions(n)]


def test_field_embedding():
    assert modp.P % 8 == 1
    assert pow(modp.ZETA8, 4, modp.P) == modp.P - 1
    assert modp.I * modp.I % modp.P == modp.P - 1
    assert modp.SQRT2 * modp.SQRT2 % modp.P == 2


def test_parse_matches_the_program_text():
    rng = random.Random(3)
    for _ in range(300):
        parts = [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) * rng.randint(0, 1) for _ in range(4)]
        value = S.Scalar(S.GaussRational(parts[0], parts[1]), S.GaussRational(parts[2], parts[3]))
        a_re, a_im, b_re, b_im = (modp.rational(p) for p in parts)
        want = (a_re + modp.I * a_im + modp.SQRT2 * (b_re + modp.I * b_im)) % modp.P
        assert modp.parse(S.scalar_format(value)) == want
    for text in ("s2", "-s2", "i", "-i*s2", "(1-i)*s2", "-1/3+2i+(1+i)*s2"):
        assert modp.parse(text) == modp.parse(S.scalar_format(S.scalar_parse(text)))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_ghz_rank_two_on_every_cut(n):
    assert set(cut_ranks(inputs.ghz(n), n)) == {2}
    assert set(cut_ranks(inputs.densify(inputs.ghz(n), n, random.Random(n)), n)) == {2}


@pytest.mark.parametrize("n", [6, 8])
def test_dicke_rank_is_ell_plus_one(n):
    for ell in range(1, n // 2 + 1):
        dense = inputs.densify(inputs.dicke(n, ell), n, random.Random(ell))
        assert set(cut_ranks(dense, n)) == {ell + 1}


def test_bell_pairs_rank_is_two_to_the_cut_pairs():
    rng = random.Random(5)
    pairing = inputs.random_pairing(8, rng)
    dense = inputs.densify(inputs.bell_pairs(8, pairing), 8, rng)
    for rows, got in zip(inputs.bipartitions(8), cut_ranks(dense, 8)):
        assert got == 2 ** sum((q in rows) != (t in rows) for q, t in pairing)


def test_certify_rank_rejects_off_by_one():
    matrix = modp.reshape(inputs.to_modp(inputs.dicke(8, 3)), 8)
    assert modp.certify_rank(matrix, 4)
    assert not modp.certify_rank(matrix, 3)
    assert not modp.certify_rank(matrix, 5)


def test_det_law_and_apply_local_mod_p():
    rng = random.Random(9)
    n = 6
    amps = inputs.certified_product_sum(n, 8, rng)
    ops = [inputs.random_op(rng) for _ in range(n)]
    out = modp.apply_local(inputs.to_modp(amps), n, [inputs.op_to_modp(op) for op in ops])
    assert out == inputs.to_modp(inputs.apply_ops(amps, n, ops))
    scale = 1
    for op in ops:
        (a, b), (c, d) = inputs.op_to_modp(op)
        scale = scale * (a * d - b * c) % modp.P
    before = modp.det(modp.reshape(inputs.to_modp(amps), n))
    assert before != 0
    assert modp.det(modp.reshape(out, n)) == before * pow(scale, 1 << ((n - 2) // 2), modp.P) % modp.P


def test_dense_signature_check_follows_the_mod_p_ranks(tmp_path):
    workload = workloads.make("dense-signature", 4, tmp_path)
    workload.setup()
    for (kind, state, _), (_, _, check) in zip(workload.inputs_for(0), workload.round(0)):
        images = workloads.state_modp(state)
        ranks = [modp.rank(modp.reshape(images, 8, modp.row_qubits(8, s.transpositions)))
                 for s in workload.sigmas]
        assert check(S.FamilySignature(tuple(workload.sigmas), tuple(ranks))), kind
        ranks[7] += 1
        assert not check(S.FamilySignature(tuple(workload.sigmas), tuple(ranks))), kind


def test_cli_check_rejects_a_wrong_rank_and_changed_stdout(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(SRC))
    workload = workloads.make("cli-calls", 4, tmp_path)
    workload.setup()
    items = {kind: check for kind, _, check in workload.round(0)}
    assert items["rank"]((0, json.dumps({"rank": 2, "sigma": ""}), ""))
    assert not items["rank"]((0, json.dumps({"rank": 2, "sigma": "x"}), ""))  # stdout changed
    items = {kind: check for kind, _, check in workload.round(1)}
    assert not items["rank-numeric"]((0, json.dumps({"rank": 3, "sigma": "", "numeric": True}), ""))
    assert not items["permutations"]((2, "", "error"))
    assert items["dicke-scan"]((0, json.dumps({"n": 8, "rows": [
        {"ell": ell, "rank": ell + 1, "distinct_rows": ell + 1,
         "row_multiplicities": [comb(4, j) for j in range(ell + 1)]} for ell in range(1, 5)], "pass": True}), ""))


def _run_round(name, tmp_path):
    workload = workloads.make(name, 6, tmp_path)
    workload.setup()
    records, _, _ = worker.run_phase(workload, 0.0)
    return records


def test_clean_round_passes(tmp_path):
    records = _run_round("table-sweep", tmp_path)
    assert records and not any(r[4] or r[5] for r in records)


def test_rank_off_by_one_counts_as_failed(tmp_path, monkeypatch):
    exact_rank = S.classify.exact_rank
    monkeypatch.setattr(S.classify, "exact_rank",
                        lambda m: S.RankResult(exact_rank(m).rank + 1, ()))
    records = _run_round("table-sweep", tmp_path)
    assert records and all(r[4] and r[5] for r in records)


def test_identity_returning_false_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(S, "verify_matrix_equation", lambda *args: False)
    records = _run_round("verify-trials", tmp_path)
    assert len(records) == 2 and all(r[4] and r[5] for r in records)
