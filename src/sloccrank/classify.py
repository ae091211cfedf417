"""Rank signatures, family assignment, Dicke scans, and table reproduction.

A state's signature is the vector of coefficient-matrix ranks taken over a
list of qubit swap sets.  Signatures split the state space into families:
states related by invertible local operators always share a signature, so a
signature mismatch is a proof of inequivalence.

The three built-in tables cover the parameterized four-qubit families
``L_a2b2``, ``span_0kPsi``, ``L_ab3`` and ``L_abc2`` (the latter two share a
table, with c locked to a).  Each cell is a region of the two-parameter
plane, stated once in ``_REGIONS`` by its key (such as ``"xy=0 & x≠y"``),
which is at the same time the printed label, the membership test and the
draw.  Regions are verified by sampling: boundary constraints such as
a = -b are imposed by construction on exact rationals, generic constraints
draw random nonzero rationals, and a separate pool of unconstrained draws
must land in exactly one listed cell and show its signature.  The draws
come from small finite sets, so within one ``classify_table`` call a point
drawn again reuses its group's signature for it instead of being built and
ranked again; sample counts and hits still count every draw.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from collections.abc import Callable
from fractions import Fraction
from math import comb

from .coeffmatrix import IDENTITY, QubitPermutation, coefficient_matrix
from .rank import exact_rank, state_cuts
from .states import PureState, check_qubits, dicke_state, family_state

__all__ = [
    "FamilySignature",
    "rank_signature",
    "family_of",
    "DickeScanRow",
    "dicke_rank_scan",
    "CellReport",
    "TableReport",
    "classify_table",
    "TABLE_IDS",
]


class FamilySignature(namedtuple("FamilySignature", ["sigmas", "ranks"])):
    """Ranks of a state's coefficient matrices over an ordered list of swaps."""

    __slots__ = ()

    def __new__(cls, sigmas: tuple[QubitPermutation, ...], ranks: tuple[int, ...]) -> FamilySignature:
        if len(sigmas) != len(ranks):
            raise ValueError("sigmas and ranks must have the same length")
        return super().__new__(cls, sigmas, ranks)

    def to_json_dict(self) -> dict:
        return {"sigmas": [s.to_text() for s in self.sigmas], "ranks": list(self.ranks)}


def rank_signature(state: PureState, sigmas) -> FamilySignature:
    sigmas = tuple(sigmas)
    ranks = tuple(exact_rank(cut).rank for cut in state_cuts(state, sigmas))
    return FamilySignature(sigmas, ranks)


def family_of(state: PureState) -> int:
    """The state's family index: its rank under the default bipartition."""
    return exact_rank(coefficient_matrix(state)).rank


DickeScanRow = namedtuple("DickeScanRow", ["ell", "rank", "distinct_nonzero_rows", "row_multiplicities"])


def dicke_rank_scan(n: int) -> list[DickeScanRow]:
    """Rank and row structure of every Dicke matrix with ell <= n//2.

    Each nonzero row is paired with the weight of its index, the number of
    ones in its row bits.  One condition then holds for every excitation
    count, or the scan raises, since a mismatch would mean the rank engine
    or the generators are broken: the rank is ell + 1, there are ell + 1
    distinct rows, each distinct row sits at one weight, weight j holds
    C(n//2, j) rows, and the mirrored state with n - ell excitations has the
    same rank.
    """
    check_qubits(n)
    half = n // 2
    out = []
    for ell in range(1, half + 1):
        matrix = coefficient_matrix(dicke_state(n, ell))
        rank = exact_rank(matrix).rank

        pairs = [(row, index.bit_count()) for index, row in enumerate(matrix.entries) if any(row)]
        distinct = len({row for row, _ in pairs})
        by_weight = Counter(weight for _, weight in pairs)
        mirror = exact_rank(coefficient_matrix(dicke_state(n, n - ell))).rank
        predicted = {j: comb(half, j) for j in range(ell + 1)}
        if (rank != ell + 1 or distinct != ell + 1 or len(set(pairs)) != distinct
                or by_weight != predicted or mirror != rank):
            raise RuntimeError(f"Dicke scan n={n} ell={ell}: rank structure mismatch")
        out.append(DickeScanRow(ell, rank, distinct, tuple(by_weight[j] for j in range(ell + 1))))
    return out


# --- table reproduction ----------------------------------------------------

_Point = tuple[Fraction, Fraction]


def _nonzero(rng: random.Random) -> Fraction:
    while True:
        value = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if value:
            return value


def _one_zero(rng: random.Random) -> _Point:
    zero_first = rng.random() < 0.5
    value = _nonzero(rng)
    return (Fraction(0), value) if zero_first else (value, Fraction(0))


def _equal_up_to_sign(rng: random.Random) -> _Point:
    value = _nonzero(rng)
    return value, value if rng.random() < 0.5 else -value


def _distinct_nonzero(rng: random.Random, forbid_sign: bool = False) -> _Point:
    x = _nonzero(rng)
    while True:
        y = _nonzero(rng)
        if y != x and not (forbid_sign and y == -x):
            return x, y


# Each region of the (x, y) parameter plane: its membership test and a draw
# of an exact rational point inside it (None for a region listed as empty).
# A group's cell label is the key with x, y replaced by its parameter symbols.
_REGIONS: dict[str, tuple[Callable[[Fraction, Fraction], bool],
                          Callable[[random.Random], _Point] | None]] = {
    "∅": (lambda x, y: False, None),
    "x=y=0": (lambda x, y: x == 0 and y == 0, lambda rng: (Fraction(0), Fraction(0))),
    "x=0 & y≠0": (lambda x, y: x == 0 and y != 0, lambda rng: (Fraction(0), _nonzero(rng))),
    "x≠0 & y=0": (lambda x, y: x != 0 and y == 0, lambda rng: (_nonzero(rng), Fraction(0))),
    "xy=0 & x≠y": (lambda x, y: x * y == 0 and x != y, _one_zero),
    "x=y≠0": (lambda x, y: x == y != 0, lambda rng: (_nonzero(rng),) * 2),
    "x=±y & x≠0": (lambda x, y: x != 0 and (x == y or x == -y), _equal_up_to_sign),
    "xy≠0 & x≠y": (lambda x, y: x * y != 0 and x != y, _distinct_nonzero),
    "xy≠0 & x≠±y": (lambda x, y: x * y != 0 and x != y and x != -y,
                    lambda rng: _distinct_nonzero(rng, forbid_sign=True)),
    # Quirk, kept so that each seed draws the same points: the draw skips
    # x = y, so only unconstrained draws reach this region's line x = y ≠ 0.
    "xy≠0": (lambda x, y: x * y != 0, _distinct_nonzero),
}

_SYMBOLS = {"alpha": "α", "beta": "β"}

_SWAP_14 = QubitPermutation(((1, 4),))

# table id -> (swap sets, groups); a group is (family shown, parameter names,
# builder, cells) and a cell is (region, signature).
_TABLES = {
    "verstraete": ((IDENTITY, _SWAP_14), (
        (None, ("a", "b"), lambda p: family_state("L_a2b2", **p), (
            ("x=y=0", (2, 1)),
            ("xy=0 & x≠y", (3, 3)),
            ("x=±y & x≠0", (4, 2)),
            ("xy≠0 & x≠±y", (4, 3)),
        )),
    )),
    "lamata": ((IDENTITY, _SWAP_14), (
        (None, ("alpha", "beta"), lambda p: family_state("span_0kPsi", **p), (
            ("x=y=0", (1, 2)),
            ("x=y≠0", (1, 4)),
            ("xy=0 & x≠y", (2, 3)),
            ("xy≠0 & x≠y", (2, 4)),
        )),
    )),
    "chterental": ((IDENTITY,), (
        ("L_ab3", ("a", "b"), lambda p: family_state("L_ab3", **p), (
            ("∅", (1,)),
            ("x=y=0", (2,)),
            ("xy=0 & x≠y", (3,)),
            ("xy≠0", (4,)),
        )),
        # the table fixes c = a for this family
        ("L_abc2", ("a", "b"), lambda p: family_state("L_abc2", **p, c=p["a"]), (
            ("x=y=0", (1,)),
            ("x=0 & y≠0", (2,)),
            ("x≠0 & y=0", (3,)),
            ("xy≠0", (4,)),
        )),
    )),
}

TABLE_IDS = tuple(sorted(_TABLES))


def _label(region: str, names: tuple[str, str]) -> str:
    x, y = (_SYMBOLS.get(name, name) for name in names)
    return region.translate({ord("x"): x, ord("y"): y})


class CellReport(namedtuple("CellReport", ["region", "signature", "samples", "passed", "family", "witness"],
                            defaults=(None, None))):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        payload: dict = {}
        if self.family is not None:
            payload["family"] = self.family
        payload["region"] = self.region
        payload["signature"] = list(self.signature)
        payload["samples"] = self.samples
        payload["pass"] = self.passed
        if self.witness is not None:
            payload["witness"] = self.witness
        return payload


class TableReport(namedtuple("TableReport", ["table", "cells", "unconstrained_hits", "unconstrained_failures"])):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(cell.passed for cell in self.cells) and not self.unconstrained_failures

    def to_json_dict(self) -> dict:
        payload = {
            "table": self.table,
            "cells": [cell.to_json_dict() for cell in self.cells],
            "unconstrained_hits": self.unconstrained_hits,
            "pass": self.passed,
        }
        if self.unconstrained_failures:
            payload["unconstrained_failures"] = self.unconstrained_failures
        return payload


def _params_repr(names: tuple[str, str], point: _Point) -> dict:
    return {name: str(value) for name, value in sorted(zip(names, point))}


def _hit_key(family: str | None, ranks: tuple[int, ...]) -> str:
    body = ",".join(str(r) for r in ranks)
    return f"{family}:{body}" if family else body


def classify_table(table: str, samples_per_cell: int, seed: int) -> TableReport:
    """Reproduce one of the built-in family tables by exact sampling.

    Every nonempty cell is sampled ``samples_per_cell`` times inside its
    region and the computed signature must equal the cell's.  On top of
    that, 10x as many unconstrained parameter draws per family are routed
    to whichever region they satisfy and must reproduce that cell's
    signature, so no draw can ever land in a region listed as empty.

    A point drawn again in the same group reuses the signature of its first
    draw instead of building and ranking the state again.  Every draw is
    still taken from the RNG in order and counted, in samples, hits and
    failures alike.
    """
    if table not in _TABLES:
        raise ValueError(f"unknown table {table!r}; expected one of {list(TABLE_IDS)}")
    if samples_per_cell < 1:
        raise ValueError("samples_per_cell must be at least 1")
    sigmas, groups = _TABLES[table]
    rng = random.Random(seed)
    cell_reports: list[CellReport] = []
    # One memo per group: two groups may draw the same point but build different states.
    known: list[dict[_Point, tuple[int, ...]]] = [{} for _ in groups]

    def ranks_at(group: int, point: _Point) -> tuple[int, ...]:
        ranks = known[group].get(point)
        if ranks is None:
            _, names, build, _ = groups[group]
            ranks = known[group][point] = rank_signature(build(dict(zip(names, point))), sigmas).ranks
        return ranks

    for group, (family, names, _, cells) in enumerate(groups):
        for region, signature in cells:
            draw = _REGIONS[region][1]
            # a region listed as empty gets no samples; the unconstrained draws check it
            samples = samples_per_cell if draw else 0
            witness = None
            for _ in range(samples):
                point = draw(rng)
                ranks = ranks_at(group, point)
                if ranks != signature:
                    witness = {"params": _params_repr(names, point), "signature": list(ranks)}
                    break
            cell_reports.append(CellReport(_label(region, names), signature, samples,
                                           witness is None, family=family, witness=witness))

    hits: dict[str, int] = {}
    failures: list[dict] = []
    draws = samples_per_cell * 10
    for group, (family, names, _, cells) in enumerate(groups):
        for _ in range(draws):
            point = tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in names)
            ranks = ranks_at(group, point)
            key = _hit_key(family, ranks)
            hits[key] = hits.get(key, 0) + 1
            matches = [(region, signature) for region, signature in cells
                       if _REGIONS[region][0](*point)]
            if len(matches) != 1 or ranks != matches[0][1]:
                failures.append(
                    {
                        "family": family,
                        "params": _params_repr(names, point),
                        "signature": list(ranks),
                        "matched_regions": [_label(region, names) for region, _ in matches],
                    }
                )

    for position, report in enumerate(cell_reports):
        key = _hit_key(report.family, report.signature)
        if report.samples == 0 and key in hits:
            cell_reports[position] = report._replace(
                passed=False, witness={"unconstrained_hits": hits[key]})

    return TableReport(
        table=table,
        cells=cell_reports,
        unconstrained_hits={key: hits[key] for key in sorted(hits)},
        unconstrained_failures=failures,
    )
