"""End-to-end command-line behavior: JSON output, exit codes, determinism."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sloccrank
from sloccrank.cli import MAX_REPEATS, entrypoint, main
from sloccrank.rank import RankResult
from sloccrank.scalar import scalar_format, scalar_parse
from sloccrank.slocc import apply_local, random_invertible_ops
from sloccrank.states import (
    PureState,
    basis_state,
    dicke_state,
    family_state,
    ghz_state,
    ladder_state,
    save_state,
)

SRC = str(Path(sloccrank.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Every gen family with fixed flags, in the order its payload lists them, and the state
# the library builds for it.
GEN_CASES = [
    ("basis", 3, {"index": 5}, lambda: basis_state(3, 5)),
    ("ghz", 4, {}, lambda: ghz_state(4)),
    ("w", 3, {}, lambda: dicke_state(3, 1)),
    ("dicke", 5, {"ell": 2}, lambda: dicke_state(5, 2)),
    ("ladder", 5, {"r": 2}, lambda: ladder_state(5, 2)),
    ("L_a2b2", 4, {"a": "1/2", "b": "i"},
     lambda: family_state("L_a2b2", a=scalar_parse("1/2"), b=scalar_parse("i"))),
    ("L_ab3", 4, {"a": "1", "b": "2"}, lambda: family_state("L_ab3", a=1, b=2)),
    ("L_abc2", 4, {"a": "1", "b": "2", "c": "3"}, lambda: family_state("L_abc2", a=1, b=2, c=3)),
    ("span_0kPsi", 4, {"alpha": "1", "beta": "s2"},
     lambda: family_state("span_0kPsi", alpha=1, beta=scalar_parse("s2"))),
]


class TestGenAndRank:
    @pytest.mark.parametrize("family, n, flags, build", GEN_CASES, ids=[case[0] for case in GEN_CASES])
    def test_every_family_byte_for_byte(self, capsys, tmp_path, family, n, flags, build):
        path = str(tmp_path / "gen.json")
        argv = ["gen", "--family", family, "--n", str(n), "-o", path]
        for name, value in flags.items():
            argv += [f"--{name}", str(value)]
        code, out, err = run(capsys, *argv)
        state = build()
        assert code == 0
        assert out == json.dumps({"family": family, "n": n, **flags, "terms": len(state.amps),
                                  "output": path}) + "\n"
        assert err == f"gen: wrote {family} state on {n} qubits to {path}\n"
        save_state(state, tmp_path / "library.json")
        assert Path(path).read_bytes() == (tmp_path / "library.json").read_bytes()

    def test_ghz_rank_exact_output(self, capsys, tmp_path):
        path = str(tmp_path / "ghz4.json")
        code, _, _ = run(capsys, "gen", "--family", "ghz", "--n", "4", "-o", path)
        assert code == 0
        code, out, _ = run(capsys, "rank", "--state", path)
        assert code == 0
        assert out == '{"rank": 2, "sigma": ""}\n'

    def test_gen_dicke_then_rank(self, capsys, tmp_path):
        path = str(tmp_path / "d.json")
        code, out, _ = run(capsys, "gen", "--family", "dicke", "--n", "6", "--ell", "2",
                           "-o", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["terms"] == 15
        code, out, _ = run(capsys, "rank", "--state", path)
        assert json.loads(out)["rank"] == 3

    def test_gen_w_alias(self, capsys, tmp_path):
        path = str(tmp_path / "w.json")
        run(capsys, "gen", "--family", "w", "--n", "5", "-o", path)
        code, out, _ = run(capsys, "rank", "--state", path)
        assert json.loads(out)["rank"] == 2

    def test_gen_basis_with_index(self, capsys, tmp_path):
        path = str(tmp_path / "b.json")
        code, out, _ = run(capsys, "gen", "--family", "basis", "--n", "3", "--index", "5",
                           "-o", path)
        assert code == 0
        assert json.loads(out)["index"] == 5
        code, out, _ = run(capsys, "rank", "--state", path)
        assert json.loads(out)["rank"] == 1

    def test_gen_basis_without_index_is_index_zero(self, capsys, tmp_path):
        path = str(tmp_path / "b.json")
        code, out, _ = run(capsys, "gen", "--family", "basis", "--n", "2", "-o", path)
        assert code == 0
        assert out == json.dumps({"family": "basis", "n": 2, "index": 0, "terms": 1, "output": path}) + "\n"
        assert json.loads(Path(path).read_text())["amplitudes"] == [{"index": 0, "value": "1"}]

    def test_gen_family_with_scalar_params(self, capsys, tmp_path):
        path = str(tmp_path / "f.json")
        # scalars starting with '-' need the --flag=value spelling
        code, out, _ = run(capsys, "gen", "--family", "L_a2b2", "--n", "4",
                           "--a", "1", "--b=-1/2", "-o", path)
        assert code == 0
        code, out, _ = run(capsys, "rank", "--state", path, "--sigma", "1:4")
        assert json.loads(out) == {"rank": 3, "sigma": "1:4"}

    def test_gen_help_lists_families_and_parameters_in_order(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "--help"])
        out = capsys.readouterr().out
        assert "{basis,ghz,w,dicke,ladder,L_a2b2,L_ab3,L_abc2,span_0kPsi}" in out
        flags = [out.index(f"--{name} {name.upper()}") for name in ("a", "b", "c", "alpha", "beta")]
        assert flags == sorted(flags)

    def test_rank_numeric(self, capsys, tmp_path):
        path = str(tmp_path / "g.json")
        run(capsys, "gen", "--family", "ghz", "--n", "4", "-o", path)
        code, out, _ = run(capsys, "rank", "--state", path, "--numeric")
        payload = json.loads(out)
        assert payload["rank"] == 2
        assert payload["numeric"] is True

    def test_rank_numeric_with_tolerance_reports_it(self, capsys, tmp_path):
        path = str(tmp_path / "g.json")
        run(capsys, "gen", "--family", "ghz", "--n", "4", "-o", path)
        code, out, _ = run(capsys, "rank", "--state", path, "--numeric", "--tol", "1e-6")
        assert code == 0
        assert out == '{"rank": 2, "sigma": "", "numeric": true, "tol": 1e-06}\n'


class TestSignatureAndPermutations:
    def test_signature_all(self, capsys, tmp_path):
        path = str(tmp_path / "ghz4.json")
        run(capsys, "gen", "--family", "ghz", "--n", "4", "-o", path)
        code, out, _ = run(capsys, "signature", "--state", path)
        payload = json.loads(out)
        assert payload == {"n": 4, "sigmas": ["", "1:3", "1:4"], "ranks": [2, 2, 2]}

    def test_signature_explicit_list(self, capsys, tmp_path):
        path = str(tmp_path / "span.json")
        run(capsys, "gen", "--family", "span_0kPsi", "--n", "4",
            "--alpha", "0", "--beta", "0", "-o", path)
        code, out, _ = run(capsys, "signature", "--state", path, "--sigmas", ";1:4")
        assert json.loads(out)["ranks"] == [1, 2]

    def test_permutations(self, capsys):
        code, out, _ = run(capsys, "permutations", "--n", "5")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 10
        assert payload["sigmas"][0] == ""
        assert len(payload["sigmas"]) == 10

    def test_one_qubit_has_one_cut(self, capsys, tmp_path):
        path = str(tmp_path / "b1.json")
        assert run(capsys, "gen", "--family", "basis", "--n", "1", "--index", "1", "-o", path)[0] == 0
        assert run(capsys, "signature", "--state", path)[:2] == (0, '{"n": 1, "sigmas": [""], "ranks": [1]}\n')
        code, out, _ = run(capsys, "permutations", "--n", "1")
        assert code == 0 and json.loads(out) == {"n": 1, "count": 1, "sigmas": [""]}


class TestVerify:
    def test_invertible_checks_pass(self, capsys, tmp_path):
        path = str(tmp_path / "s.json")
        run(capsys, "gen", "--family", "ghz", "--n", "4", "-o", path)
        code, out, _ = run(capsys, "verify", "--state", path, "--trials", "5", "--seed", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["pass"] is True
        assert payload["checks"]["matrix_equation"]["failures"] == 0
        assert payload["checks"]["rank_invariance"]["failures"] == 0
        assert payload["checks"]["det_relation"]["runs"] == 5

    def test_allow_singular_monotonicity(self, capsys, tmp_path):
        path = str(tmp_path / "s.json")
        run(capsys, "gen", "--family", "ladder", "--n", "5", "--r", "2", "-o", path)
        code, out, _ = run(capsys, "verify", "--state", path, "--trials", "5",
                           "--seed", "3", "--allow-singular")
        payload = json.loads(out)
        assert code == 0
        assert payload["checks"]["rank_monotonicity"]["failures"] == 0
        assert payload["checks"]["det_relation"]["runs"] == 0  # odd qubit count

    def test_deterministic_output(self, capsys, tmp_path):
        path = str(tmp_path / "s.json")
        run(capsys, "gen", "--family", "ghz", "--n", "3", "-o", path)
        _, first, _ = run(capsys, "verify", "--state", path, "--trials", "4", "--seed", "9")
        _, second, _ = run(capsys, "verify", "--state", path, "--trials", "4", "--seed", "9")
        assert first == second

    @pytest.mark.parametrize("helper, check, flags", [
        ("_predicted_matrix", "matrix_equation", []),
        ("_det_law_holds", "det_relation", []),
        ("exact_rank", "rank_invariance", []),
        ("exact_rank", "rank_monotonicity", ["--allow-singular"]),
    ])
    def test_each_check_can_fail(self, capsys, monkeypatch, tmp_path, helper, check, flags):
        rising = itertools.count(1)
        wrong = {
            "_predicted_matrix": lambda state, ops, sigma: {},
            "_det_law_holds": lambda det, ops, transformed: False,
            # each call answers one more than the last, so every trial outranks the base
            "exact_rank": lambda matrix: RankResult(next(rising), ()),
        }
        path = str(tmp_path / "s.json")
        run(capsys, "gen", "--family", "ghz", "--n", "4", "-o", path)
        module = sloccrank.classify if helper == "exact_rank" else sloccrank.slocc
        monkeypatch.setattr(module, helper, wrong[helper])
        code, out, err = run(capsys, "verify", "--state", path, "--trials", "3", *flags)
        checks = json.loads(out)["checks"]
        assert code == 1
        assert '"pass": false' in out
        assert "FAILED" in err
        assert check in checks
        assert all(c["failures"] == (c["runs"] if name == check else 0)
                   for name, c in checks.items())

    def test_one_trial_applies_the_operators_once(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "dense6.json"
        path.write_text(json.dumps(_dense6_payload()))
        calls = []
        real = sloccrank.slocc.apply_local
        monkeypatch.setattr(sloccrank.slocc, "apply_local",
                            lambda state, ops: calls.append(1) or real(state, ops))
        code, _, _ = run(capsys, "verify", "--state", str(path), "--trials", "3")
        assert code == 0
        assert len(calls) == 3


class TestTableCommand:
    def test_verstraete(self, capsys):
        code, out, _ = run(capsys, "table", "--id", "verstraete", "--samples", "2",
                           "--seed", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["pass"] is True
        assert len(payload["cells"]) == 4

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "table", "--id", "lamata", "--samples", "2", "--seed", "5")
        _, second, _ = run(capsys, "table", "--id", "lamata", "--samples", "2", "--seed", "5")
        assert first == second


class TestDickeScan:
    def test_four_qubits(self, capsys):
        code, out, _ = run(capsys, "dicke-scan", "--n", "4")
        payload = json.loads(out)
        assert code == 0
        assert payload["rows"] == [
            {"ell": 1, "rank": 2, "distinct_rows": 2, "row_multiplicities": [1, 2]},
            {"ell": 2, "rank": 3, "distinct_rows": 3, "row_multiplicities": [1, 2, 1]},
        ]

    def test_one_qubit_scan_is_empty(self, capsys):
        code, out, _ = run(capsys, "dicke-scan", "--n", "1")
        assert code == 0
        assert json.loads(out) == {"n": 1, "rows": [], "pass": True}

    def test_zero_qubits_is_a_bad_qubit_count(self, capsys):
        code, out, err = run(capsys, "dicke-scan", "--n", "0")
        assert code == 2
        assert out == ""
        assert "qubit count" in err

    def test_failed_scan_check_is_a_json_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(sloccrank.classify, "exact_rank", lambda matrix: RankResult(0, ()))
        code, out, err = run(capsys, "dicke-scan", "--n", "4")
        payload = json.loads(out)
        assert code == 1
        assert payload == {"n": 4, "error": "Dicke scan n=4 ell=1: rank structure mismatch",
                           "pass": False}
        assert "FAILED" in err


class TestErrorPaths:
    def test_four_qubit_family_at_other_n(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        code, out, err = run(capsys, "gen", "--family", "L_a2b2", "--n", "5",
                             "--a", "1", "--b", "2", "-o", str(path))
        assert code == 2
        assert out == ""
        assert "family L_a2b2 is defined on 4 qubits" in err
        assert not path.exists()

    def test_missing_state_file(self, capsys):
        code, out, err = run(capsys, "rank", "--state", "/nonexistent/state.json")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_invalid_state_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "amplitudes": [{"index": 8, "value": "1"}]}))
        code, _, err = run(capsys, "rank", "--state", str(path))
        assert code == 2
        assert "out of range" in err

    def test_negative_first_index_is_out_of_range(self, tmp_path):
        # Range is checked before order: -5 is no index, not one that follows -1.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "amplitudes": [{"index": -5, "value": "1"}]}))
        env = {**os.environ, "PYTHONPATH": SRC}
        done = subprocess.run([sys.executable, "-m", "sloccrank.cli", "rank", "--state", str(path)],
                              env=env, capture_output=True, text=True, timeout=30)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "amplitude 0: index -5 out of range for n=3" in done.stderr
        assert "Traceback" not in done.stderr

    def test_bad_scalar_flag(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--family", "L_a2b2", "--n", "4",
                           "--a", "1+", "--b", "2", "-o", str(tmp_path / "x.json"))
        assert code == 2

    def test_missing_family_parameter(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--family", "L_ab3", "--n", "4",
                           "-o", str(tmp_path / "x.json"))
        assert code == 2
        assert "required" in err

    @pytest.mark.parametrize("argv, flag", [
        (["--family", "L_a2b2", "--n", "4", "--a", "1", "--b", "2", "--c", "7"], "--c"),
        (["--family", "L_ab3", "--n", "4", "--a", "1", "--b", "2", "--alpha", "1"], "--alpha"),
        (["--family", "L_abc2", "--n", "4", "--a", "1", "--b", "2", "--c", "3", "--beta", "1"], "--beta"),
        (["--family", "span_0kPsi", "--n", "4", "--alpha", "1", "--beta", "2", "--b", "1"], "--b"),
        (["--family", "ghz", "--n", "4", "--ell", "2"], "--ell"),
        (["--family", "ghz", "--n", "4", "--r", "1"], "--r"),
        (["--family", "w", "--n", "4", "--index", "0"], "--index"),
        (["--family", "basis", "--n", "3", "--a", "1"], "--a"),
        (["--family", "basis", "--n", "3", "--ell", "1"], "--ell"),
        (["--family", "dicke", "--n", "4", "--ell", "2", "--r", "1"], "--r"),
        (["--family", "dicke", "--n", "4", "--ell", "1", "--index", "3"], "--index"),
        (["--family", "ladder", "--n", "4", "--r", "1", "--ell", "2"], "--ell"),
        (["--family", "ladder", "--n", "4", "--r", "1", "--alpha", "1"], "--alpha"),
    ])
    def test_gen_rejects_a_flag_its_family_does_not_take(self, capsys, tmp_path, argv, flag):
        path = tmp_path / "x.json"
        code, out, err = run(capsys, "gen", *argv, "-o", str(path))
        assert code == 2
        assert out == ""
        assert f"does not take {flag}" in err
        assert not path.exists()

    def test_dicke_requires_ell(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--family", "dicke", "--n", "4",
                           "-o", str(tmp_path / "x.json"))
        assert code == 2

    @pytest.mark.parametrize("argv", [["--family", "w", "--n", "1"],
                                      ["--family", "dicke", "--n", "1", "--ell", "1"]])
    def test_one_qubit_dicke_state_is_rejected(self, capsys, tmp_path, argv):
        path = tmp_path / "x.json"
        code, out, err = run(capsys, "gen", *argv, "-o", str(path))
        assert code == 2
        assert out == ""
        assert "Dicke states need at least 2 qubits" in err
        assert not path.exists()

    def test_bad_sigma_text(self, capsys, tmp_path):
        path = str(tmp_path / "s.json")
        run(capsys, "gen", "--family", "ghz", "--n", "4", "-o", path)
        code, _, _ = run(capsys, "rank", "--state", path, "--sigma", "nonsense")
        assert code == 2

    def test_sigma_label_out_of_range(self, capsys, tmp_path):
        path = str(tmp_path / "s.json")
        run(capsys, "gen", "--family", "ghz", "--n", "3", "-o", path)
        code, _, _ = run(capsys, "rank", "--state", path, "--sigma", "1:9")
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unwritable_output(self, capsys):
        code, _, _ = run(capsys, "gen", "--family", "ghz", "--n", "3",
                         "-o", "/nonexistent-dir/out.json")
        assert code == 2

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
    def test_numeric_rank_rejects_bad_tolerance(self, capsys, tmp_path, tol):
        path = str(tmp_path / "g.json")
        run(capsys, "gen", "--family", "ghz", "--n", "4", "-o", path)
        code, out, err = run(capsys, "rank", "--state", path, "--numeric", f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert "tolerance" in err

    @pytest.mark.parametrize("tol", ["-5", "0.5"])
    def test_tolerance_without_numeric_is_rejected(self, capsys, tmp_path, tol):
        path = str(tmp_path / "g.json")
        run(capsys, "gen", "--family", "ghz", "--n", "4", "-o", path)
        code, out, err = run(capsys, "rank", "--state", path, f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert "--numeric" in err

    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "dicke", "--n", "40", "--ell", "1", "-o", "unused.json"],
        ["gen", "--family", "ladder", "--n", "40", "--r", "1000000", "-o", "unused.json"],
        ["gen", "--family", "ghz", "--n", "100000000000000", "-o", "unused.json"],
        ["gen", "--family", "w", "--n", "100000000000000", "-o", "unused.json"],
        ["gen", "--family", "basis", "--n", "100000000000000", "-o", "unused.json"],
        ["dicke-scan", "--n", "30"],
        ["permutations", "--n", "26"],
    ])
    def test_oversized_qubit_count_exits_at_once(self, tmp_path, argv):
        env = {**os.environ, "PYTHONPATH": SRC}
        done = subprocess.run([sys.executable, "-m", "sloccrank.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=30)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "qubit count" in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "unused.json").exists()

    @pytest.mark.parametrize("argv", [
        ["table", "--id", "verstraete", "--samples", "100000000"],
        ["table", "--id", "lamata", "--samples", str(MAX_REPEATS + 1)],
        ["verify", "--state", "ghz4.json", "--trials", "100000000"],
        ["verify", "--state", "ghz4.json", "--trials", str(MAX_REPEATS + 1)],
    ])
    def test_oversized_repeat_count_exits_at_once(self, tmp_path, argv):
        save_state(ghz_state(4), tmp_path / "ghz4.json")
        env = {**os.environ, "PYTHONPATH": SRC}
        done = subprocess.run([sys.executable, "-m", "sloccrank.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=30)
        assert done.returncode == 2
        assert done.stdout == ""
        assert f"must be in 1..{MAX_REPEATS}" in done.stderr
        assert "Traceback" not in done.stderr

    def test_repeat_limit_is_inclusive(self, capsys, tmp_path):
        path = str(tmp_path / "b2.json")
        save_state(basis_state(2, 0), path)
        code, out, _ = run(capsys, "verify", "--state", path, "--trials", str(MAX_REPEATS))
        assert code == 0
        assert json.loads(out)["checks"]["rank_invariance"]["runs"] == MAX_REPEATS

    @pytest.mark.parametrize("n", [4, 16])
    def test_closed_stdout_exits_quietly(self, n):
        # n=4 fits the pipe buffer and fails at the flush; n=16 fails inside print.
        env = {**os.environ, "PYTHONPATH": SRC}
        command = [sys.executable, "-m", "sloccrank.cli", "permutations", "--n", str(n)]
        with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert b"Traceback" not in err
        assert b"BrokenPipe" not in err

    def test_stdout_closed_after_the_first_bytes(self):
        env = {**os.environ, "PYTHONPATH": SRC}
        command = [sys.executable, "-m", "sloccrank.cli", "permutations", "--n", "16"]
        with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(80).startswith(b'{"n": 16, "count": 6435')
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert b"Traceback" not in err

    @pytest.mark.parametrize("value, flags, message", [
        ("1" * 5000, [], "amplitude 0: bad scalar"),
        ("1" + "0" * 400, ["--numeric"], "beyond double range"),
        ("1" + "0" * 308 + "+1" + "0" * 308 + "*s2", ["--numeric"], "beyond double range"),
    ], ids=["over-long-literal", "numeric-overflow", "numeric-inf"])
    def test_out_of_range_amplitude_exits_2(self, tmp_path, value, flags, message):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 2, "amplitudes": [{"index": 0, "value": value},
                                                           {"index": 3, "value": "1"}]}))
        env = {**os.environ, "PYTHONPATH": SRC}
        done = subprocess.run([sys.executable, "-m", "sloccrank.cli", "rank", "--state", str(path),
                               *flags], env=env, capture_output=True, text=True, timeout=30)
        assert done.returncode == 2
        assert done.stdout == ""
        assert message in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("key", ["n", "index"])
    def test_over_long_json_integer_exits_2(self, tmp_path, key):
        fields = {"n": "2", "index": "0", key: "1" * 5000}
        path = tmp_path / "long.json"
        path.write_text(f'{{"n": {fields["n"]}, "amplitudes": [{{"index": {fields["index"]}, "value": "1"}}]}}')
        env = {**os.environ, "PYTHONPATH": SRC}
        done = subprocess.run([sys.executable, "-m", "sloccrank.cli", "rank", "--state", str(path)],
                              env=env, capture_output=True, text=True, timeout=30)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "not valid JSON: Exceeds the limit" in done.stderr
        assert "Traceback" not in done.stderr

    def test_deeply_nested_state_file_exits_2(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        env = {**os.environ, "PYTHONPATH": SRC}
        done = subprocess.run([sys.executable, "-m", "sloccrank.cli", "rank", "--state", str(path)],
                              env=env, capture_output=True, text=True, timeout=30)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "nested too deeply" in done.stderr
        assert "Traceback" not in done.stderr


class TestEntrypoint:
    """``entrypoint`` is what the installed ``sloccrank`` script runs."""

    def test_success_exits_0(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["sloccrank", "permutations", "--n", "4"])
        with pytest.raises(SystemExit) as exc:
            entrypoint()
        assert exc.value.code == 0
        assert json.loads(capsys.readouterr().out)["count"] == 3

    def test_input_error_exits_2(self, capsys, monkeypatch, tmp_path):
        missing = str(tmp_path / "none.json")
        monkeypatch.setattr(sys, "argv", ["sloccrank", "rank", "--state", missing])
        with pytest.raises(SystemExit) as exc:
            entrypoint()
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_process_imports_no_dataclasses(self):
        # -S keeps site hooks, which may import anything, out of the result.
        code = ("import sys, sloccrank.cli, sloccrank; "
                "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'typing'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def _dense6_payload() -> dict:
    """A dense 6-qubit state with fractions, i and sqrt2 parts, written without sloccrank."""
    value = "{}/{}{:+d}i+({:+d}{:+d}i)*s2"
    return {"n": 6, "amplitudes": [
        {"index": k, "value": value.format(k % 5 + 1, k % 3 + 1, k % 7 - 3, k % 3 - 1, k % 4 - 2)}
        for k in range(64)
    ]}


# Stdout of seeded commands, byte for byte.  A change to the field type, the
# parser, the formatter or the operator sampling must leave these alone.
PINNED_STDOUT = [
    (['gen', '--family', 'L_ab3', '--n', '4', '--a', '1/2', '--b=-1/3', '-o', 'gen.json'],
     '{"family": "L_ab3", "n": 4, "a": "1/2", "b": "-1/3", "terms": 10, "output": "gen.json"}\n'),
    (['rank', '--state', 'gen.json', '--numeric'],
     '{"rank": 4, "sigma": "", "numeric": true}\n'),
    (['rank', '--state', 'dense6.json', '--numeric'],
     '{"rank": 8, "sigma": "", "numeric": true}\n'),
    (['signature', '--state', 'dense6.json'],
     '{"n": 6, "sigmas": ["", "1:4", "1:5", "1:6", "2:4", "2:5", "2:6", "1:4,2:5", "1:4,2:6", "1:5,2:6"], "ranks": [8, 8, 8, 8, 8, 8, 8, 8, 8, 8]}\n'),
    (['verify', '--state', 'dense6.json', '--trials', '2', '--seed', '5'],
     '{"state": "dense6.json", "n": 6, "trials": 2, "seed": 5, "allow_singular": false, "checks": {"matrix_equation": {"runs": 4, "failures": 0}, "rank_invariance": {"runs": 2, "failures": 0}, "det_relation": {"runs": 2, "failures": 0}}, "pass": true}\n'),
    (['verify', '--state', 'dense6.json', '--trials', '3', '--seed', '11', '--allow-singular'],
     '{"state": "dense6.json", "n": 6, "trials": 3, "seed": 11, "allow_singular": true, "checks": {"matrix_equation": {"runs": 6, "failures": 0}, "rank_monotonicity": {"runs": 3, "failures": 0}, "det_relation": {"runs": 3, "failures": 0}}, "pass": true}\n'),
    (['gen', '--family', 'dicke', '--n', '5', '--ell', '2', '-o', 'dicke5.json'],
     '{"family": "dicke", "n": 5, "ell": 2, "terms": 10, "output": "dicke5.json"}\n'),
    (['verify', '--state', 'dicke5.json', '--trials', '3', '--seed', '7'],
     '{"state": "dicke5.json", "n": 5, "trials": 3, "seed": 7, "allow_singular": false, "checks": {"matrix_equation": {"runs": 6, "failures": 0}, "rank_invariance": {"runs": 3, "failures": 0}, "det_relation": {"runs": 0, "failures": 0}}, "pass": true}\n'),
    (['table', '--id', 'lamata', '--samples', '2', '--seed', '3'],
     '{"table": "lamata", "cells": [{"region": "\\u03b1=\\u03b2=0", "signature": [1, 2], "samples": 2, "pass": true}, {"region": "\\u03b1=\\u03b2\\u22600", "signature": [1, 4], "samples": 2, "pass": true}, {"region": "\\u03b1\\u03b2=0 & \\u03b1\\u2260\\u03b2", "signature": [2, 3], "samples": 2, "pass": true}, {"region": "\\u03b1\\u03b2\\u22600 & \\u03b1\\u2260\\u03b2", "signature": [2, 4], "samples": 2, "pass": true}], "unconstrained_hits": {"1,2": 2, "1,4": 1, "2,3": 3, "2,4": 14}, "pass": true}\n'),
]
PINNED_GEN_AMPLITUDES = [(0, '1/2'), (1, '1/2i*s2'), (2, '1/2i*s2'), (5, '1/12'), (6, '5/12'), (7, '1/2i*s2'), (9, '5/12'), (10, '1/12'), (11, '1/2i*s2'), (15, '1/2')]


class TestPinnedStdout:
    def test_seeded_commands_print_the_recorded_bytes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dense6.json").write_text(json.dumps(_dense6_payload()))
        for argv, expected in PINNED_STDOUT:
            code, out, _ = run(capsys, *argv)
            assert (code, out) == (0, expected), argv
        amplitudes = json.loads((tmp_path / "gen.json").read_text())["amplitudes"]
        assert [(a["index"], a["value"]) for a in amplitudes] == PINNED_GEN_AMPLITUDES

    def test_seeded_operators_and_transformed_amplitudes(self):
        """What ``verify --seed`` draws and computes, which its stdout shows only as counts."""
        amplitudes = _dense6_payload()["amplitudes"]
        state = PureState(6, {a["index"]: scalar_parse(a["value"]) for a in amplitudes})
        ops = random_invertible_ops(6, 5)
        entries = [[[scalar_format(e) for e in row] for row in op.entries] for op in ops]
        text = json.dumps({"ops": entries}) + "\n" + ";".join(
            f"{i}:{scalar_format(v)}" for i, v in sorted(apply_local(state, ops).amps.items()))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "7af207e68a4e5b28efbd36d58ae20ccd7a03286e71dd9fc06c81e1ec91e554cb"
