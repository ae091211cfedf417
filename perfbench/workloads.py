"""The four workloads: seeded inputs, the timed item, and its independent check.

Each workload yields rounds of items.  A round always holds the same kinds
of operation in the same order; the seed changes only operators, pairings,
product factors and CLI seeds.  An item is ``(kind, run, check)``: ``run``
takes no argument and is the only part timed, ``check(result)`` compares
the result with a closed form, the mod-p checker or the published tables.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import inputs
import modp
import sloccrank as S


CLI_TIMEOUT_S = 60

# The published four-qubit tables: per cell, (family, signature), in table order.
PUBLISHED = {
    "verstraete": [(None, (2, 1)), (None, (3, 3)), (None, (4, 2)), (None, (4, 3))],
    "lamata": [(None, (1, 2)), (None, (1, 4)), (None, (2, 3)), (None, (2, 4))],
    "chterental": [
        ("L_ab3", (1,)), ("L_ab3", (2,)), ("L_ab3", (3,)), ("L_ab3", (4,)),
        ("L_abc2", (1,)), ("L_abc2", (2,)), ("L_abc2", (3,)), ("L_abc2", (4,)),
    ],
}


def _rng(seed: int, *path: int) -> random.Random:
    value = seed
    for part in path:
        value = value * 1_000_003 + part
    return random.Random(value)


def to_state(amps: dict, n: int) -> S.PureState:
    return S.PureState(n, {i: S.scalar_parse(inputs.format_gauss(v)) for i, v in amps.items()})


def state_modp(state) -> dict:
    return {i: modp.parse(S.scalar_format(v)) for i, v in state.amps.items()}


def covers_every_cut(sigmas, n: int) -> bool:
    """True when the program's swap sets give each cut of n qubits exactly once."""
    cuts = [inputs.canonical_cut(n, modp.row_qubits(n, s.transpositions)) for s in sigmas]
    return sorted(cuts) == sorted(inputs.bipartitions(n))


def table_cells(report) -> list:
    return [(cell.family, tuple(cell.signature)) for cell in report.cells]


class DenseSignature:
    """One ``rank_signature`` over all 35 cuts of a dense 8-qubit state.

    The round is a Dicke state |2,8>, a product of four Bell pairs on a
    seeded pairing and a sum of three seeded product states; every one is
    densified by seeded invertible operators.  The Dicke and product-sum
    items cost about the same, so the median rests on most of the items.
    """

    n = 8
    ell = 2
    r = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.sigmas = S.enumerate_sigmas(self.n)
        S.rank_signature(to_state(inputs.ghz(4), 4), S.enumerate_sigmas(4))
        self._first = self.inputs_for(0)

    def probe_values(self):
        return list(self._first[0][1].amps.values())

    def inputs_for(self, k: int):
        """The round's ``(kind, state, expected signature)`` triples."""
        rng = _rng(self.seed, k)
        n = self.n
        cuts = [modp.row_qubits(n, s.transpositions) for s in self.sigmas]
        pairing = inputs.random_pairing(n, rng)
        cut_pairs = [sum((q in rows) != (t in rows) for q, t in pairing) for rows in cuts]
        return [
            ("dicke", to_state(inputs.densify(inputs.dicke(n, self.ell), n, rng), n),
             (self.ell + 1,) * len(cuts)),
            ("bell", to_state(inputs.densify(inputs.bell_pairs(n, pairing), n, rng), n),
             tuple(2**k for k in cut_pairs)),
            ("product-sum", to_state(inputs.certified_product_sum(n, self.r, rng), n),
             (self.r,) * len(cuts)),
        ]

    def round(self, k: int):
        made = self._first if k == 0 else self.inputs_for(k)
        for kind, state, expected in made:
            def check(signature, expected=expected) -> bool:
                return covers_every_cut(signature.sigmas, self.n) and tuple(signature.ranks) == expected

            yield kind, (lambda state=state: S.rank_signature(state, self.sigmas)), check


class VerifyTrials:
    """One trial of the transformation identities on a dense 6-qubit state.

    The round holds a full-rank state (sum of 8 products, det != 0) and a
    rank-3 state (sum of 3 products), each with fresh invertible operators
    and a seeded random swap set.
    """

    n = 6
    ranks = (8, 3)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.sigmas = S.enumerate_sigmas(self.n)
        rng = _rng(self.seed)
        self.bases = []
        for r in self.ranks:
            amps = inputs.certified_product_sum(self.n, r, rng)
            self.bases.append((r, to_state(amps, self.n), inputs.to_modp(amps)))
        warm = to_state(inputs.ghz(4), 4)
        S.verify_det_relation(warm, [S.LocalOperator(((1, 1), (0, 1)))] * 4)

    def probe_values(self):
        return list(self.bases[0][1].amps.values())

    def round(self, k: int):
        rng = _rng(self.seed, k)
        n = self.n
        for r, state, base_modp in self.bases:
            gauss_ops = [inputs.random_op(rng) for _ in range(n)]
            ops = [S.LocalOperator([[S.scalar_parse(inputs.format_gauss(e)) for e in row]
                                    for row in op]) for op in gauss_ops]
            sigma = self.sigmas[rng.randrange(len(self.sigmas))]
            want_amps = modp.apply_local(base_modp, n, [inputs.op_to_modp(op) for op in gauss_ops])
            want_det = modp.det(modp.reshape(want_amps, n))

            def trial(state=state, ops=ops, sigma=sigma):
                out = S.apply_local(state, ops)
                return (
                    out,
                    S.verify_matrix_equation(state, ops),
                    S.verify_matrix_equation(state, ops, sigma),
                    S.rank_signature(out, self.sigmas).ranks,
                    S.exact_det(S.coefficient_matrix(out)),
                    S.verify_det_relation(state, ops),
                )

            def check(result, r=r, want_amps=want_amps, want_det=want_det) -> bool:
                out, eq_identity, eq_sigma, ranks, det, det_law = result
                return (
                    eq_identity is True and eq_sigma is True and det_law is True
                    and tuple(ranks) == (r,) * len(self.sigmas)
                    and state_modp(out) == want_amps
                    and modp.parse(S.scalar_format(det)) == want_det
                    and (want_det != 0) == (r == 1 << (n // 2))
                )

            yield f"rank-{r}", trial, check


class TableSweep:
    """One ``classify_table`` call; the round visits the three tables in turn."""

    samples = 8

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        S.classify_table("lamata", 1, self.seed)

    def probe_values(self):
        rng = _rng(self.seed)
        values = []
        for _ in range(16):
            a, b = (S.scalar_parse(f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}") for _ in range(2))
            values.extend(S.family_state("L_ab3", a=a, b=b).amps.values())
        return values

    def round(self, k: int):
        for index, table in enumerate(S.TABLE_IDS):
            table_seed = _rng(self.seed, k, index).randrange(2**31)

            def check(report, table=table) -> bool:
                return report.passed and table_cells(report) == PUBLISHED[table]

            yield table, (lambda table=table, s=table_seed: S.classify_table(table, self.samples, s)), check


class CliCalls:
    """One ``python -m sloccrank.cli`` process; the round runs eight commands."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.stdout_seen: dict[tuple, str] = {}
        # Set by the traced run: each child then runs under trace_child.py and
        # leaves its spans in a file listed in child_traces.
        self.trace_dir: Path | None = None
        self.child_traces: list[Path] = []

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = _rng(self.seed)
        self.dense8 = inputs.densify(inputs.ghz(8), 8, rng)
        self.dense6 = inputs.densify(inputs.dicke(6, 2), 6, rng)
        self.dense8_path = self.workdir / "dense8.json"
        self.dense6_path = self.workdir / "dense6.json"
        inputs.write_state(self.dense8, 8, self.dense8_path)
        inputs.write_state(self.dense6, 6, self.dense6_path)
        self.gen_ell = rng.randint(1, 4)
        self.table_seed = rng.randrange(1000)
        self.verify_seed = rng.randrange(1000)
        warm = self._call(["permutations", "--n", "4"])
        if warm[0] != 0:
            raise RuntimeError(f"CLI warm-up failed: {warm[2]}")

    def probe_values(self):
        return [S.scalar_parse(inputs.format_gauss(v)) for v in self.dense8.values()]

    def _call(self, args):
        command = [sys.executable, "-m", "sloccrank.cli"]
        if self.trace_dir is not None:
            spans_file = self.trace_dir / f"child-{len(self.child_traces)}.json"
            self.child_traces.append(spans_file)
            command = [sys.executable, str(Path(__file__).with_name("trace_child.py")), str(spans_file)]
        done = subprocess.run(command + args, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return done.returncode, done.stdout, done.stderr

    def commands(self):
        gen_path = self.workdir / "gen.json"
        d8, d6 = str(self.dense8_path), str(self.dense6_path)
        return [
            ("permutations", ["permutations", "--n", "10"],
             lambda p: p["count"] == comb(10, 5) // 2 == len(set(p["sigmas"]))),
            ("gen", ["gen", "--family", "dicke", "--n", "8", "--ell", str(self.gen_ell), "-o", str(gen_path)],
             lambda p: p["terms"] == comb(8, self.gen_ell) and self._gen_file_ok(gen_path)),
            ("rank", ["rank", "--state", d8], lambda p: p["rank"] == 2),
            ("rank-numeric", ["rank", "--state", d8, "--numeric"], lambda p: p["rank"] == 2),
            ("signature", ["signature", "--state", d6],
             lambda p: p["ranks"] == [3] * (comb(6, 3) // 2)
             and covers_every_cut([S.QubitPermutation.from_text(t) for t in p["sigmas"]], 6)),
            ("table", ["table", "--id", "verstraete", "--samples", "1", "--seed", str(self.table_seed)],
             lambda p: p["pass"] is True
             and [(c.get("family"), tuple(c["signature"])) for c in p["cells"]] == PUBLISHED["verstraete"]),
            ("dicke-scan", ["dicke-scan", "--n", "8"],
             lambda p: [(row["ell"], row["rank"], row["distinct_rows"], row["row_multiplicities"])
                        for row in p["rows"]]
             == [(ell, ell + 1, ell + 1, [comb(4, j) for j in range(ell + 1)]) for ell in range(1, 5)]),
            ("verify", ["verify", "--state", d6, "--trials", "1", "--seed", str(self.verify_seed)],
             lambda p: p["pass"] is True
             and all(c["failures"] == 0 for c in p["checks"].values())
             and p["checks"]["det_relation"]["runs"] == 1),
        ]

    def _gen_file_ok(self, path: Path) -> bool:
        payload = json.loads(path.read_text(encoding="utf-8"))
        indices = [entry["index"] for entry in payload["amplitudes"]]
        return (payload["n"] == 8 and all(entry["value"] == "1" for entry in payload["amplitudes"])
                and indices == [i for i in range(256) if i.bit_count() == self.gen_ell])

    def round(self, k: int):
        for kind, args, expect in self.commands():
            def check(result, args=args, expect=expect) -> bool:
                code, stdout, _ = result
                key = tuple(args)
                first = self.stdout_seen.setdefault(key, stdout)
                return code == 0 and stdout == first and bool(expect(json.loads(stdout)))

            yield kind, (lambda args=args: self._call(args)), check


def make(name: str, seed: int, workdir: Path):
    classes = {
        "dense-signature": DenseSignature,
        "verify-trials": VerifyTrials,
        "table-sweep": TableSweep,
        "cli-calls": CliCalls,
    }
    return classes[name](seed, workdir)
