"""Seeded inputs as exact Gaussian integers, built without sloccrank.

A Gaussian integer is a pair ``(re, im)``; a state is a dict ``{basis index:
(re, im)}`` with qubit 1 as the most significant bit; a local operator is a
2x2 tuple of Gaussian integers.  States are made dense by a product of
random invertible Gaussian-integer operators, one per qubit, which keeps
every bipartition rank and fills all 2^n amplitudes.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

import modp

OP_POOL = 3  # operator entries have re, im in [-3, 3]
VEC_POOL = 2  # product-state factors have re, im in [-2, 2]


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _gauss(rng: random.Random, pool: int):
    return (rng.randint(-pool, pool), rng.randint(-pool, pool))


def random_op(rng: random.Random):
    """A 2x2 Gaussian-integer matrix with nonzero determinant."""
    while True:
        a, b, c, d = (_gauss(rng, OP_POOL) for _ in range(4))
        if gmul(a, d) != gmul(b, c):
            return ((a, b), (c, d))


def apply_ops(amps: dict, n: int, ops) -> dict:
    """Exact action of one operator per qubit, qubit 1 first."""
    for qubit, ((m00, m01), (m10, m11)) in enumerate(ops, start=1):
        mask = 1 << (n - qubit)
        out = {}
        for base in sorted({index & ~mask for index in amps}):
            lo = amps.get(base, (0, 0))
            hi = amps.get(base | mask, (0, 0))
            new_lo = gadd(gmul(m00, lo), gmul(m01, hi))
            new_hi = gadd(gmul(m10, lo), gmul(m11, hi))
            if new_lo != (0, 0):
                out[base] = new_lo
            if new_hi != (0, 0):
                out[base | mask] = new_hi
        amps = out
    return amps


def densify(amps: dict, n: int, rng: random.Random) -> dict:
    return apply_ops(amps, n, [random_op(rng) for _ in range(n)])


def dicke(n: int, ell: int) -> dict:
    return {i: (1, 0) for i in range(1 << n) if i.bit_count() == ell}


def ghz(n: int) -> dict:
    return {0: (1, 0), (1 << n) - 1: (1, 0)}


def random_pairing(n: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    qubits = list(range(1, n + 1))
    rng.shuffle(qubits)
    return tuple(tuple(sorted(qubits[k : k + 2])) for k in range(0, n, 2))


def bell_pairs(n: int, pairing) -> dict:
    """Tensor product of |00> + |11> over each pair of qubits."""
    amps = {}
    for bits in range(1 << len(pairing)):
        index = 0
        for k, (q, t) in enumerate(pairing):
            if (bits >> k) & 1:
                index |= (1 << (n - q)) | (1 << (n - t))
        amps[index] = (1, 0)
    return amps


def product_sum(n: int, r: int, rng: random.Random) -> dict:
    """Sum of r random product states; every bipartition rank is at most r."""
    amps: dict = {}
    for _ in range(r):
        factors = []
        for _ in range(n):
            vec = ((0, 0), (0, 0))
            while vec == ((0, 0), (0, 0)):
                vec = (_gauss(rng, VEC_POOL), _gauss(rng, VEC_POOL))
            factors.append(vec)
        for index in range(1 << n):
            value = (1, 0)
            for q, vec in enumerate(factors, start=1):
                value = gmul(value, vec[(index >> (n - q)) & 1])
            amps[index] = gadd(amps.get(index, (0, 0)), value)
    return {index: value for index, value in amps.items() if value != (0, 0)}


def bipartitions(n: int):
    """Row-qubit sets of every n//2 | n - n//2 cut, one per complementary pair."""
    half = n // 2
    cuts = []
    for rows in combinations(range(1, n + 1), half):
        cols = tuple(q for q in range(1, n + 1) if q not in rows)
        if n % 2 == 0 and cols < rows:
            continue
        cuts.append(rows)
    return cuts


def canonical_cut(n: int, rows) -> tuple[int, ...]:
    """The representative of ``rows`` and its complement used by :func:`bipartitions`."""
    rows = tuple(sorted(rows))
    cols = tuple(q for q in range(1, n + 1) if q not in rows)
    return cols if n % 2 == 0 and cols < rows else rows


def certified_product_sum(n: int, r: int, rng: random.Random) -> dict:
    """A dense sum of r products whose mod-p rank is r on every cut (so exactly r)."""
    while True:
        amps = densify(product_sum(n, r, rng), n, rng)
        images = to_modp(amps)
        if all(modp.certify_rank(modp.reshape(images, n, rows), r) for rows in bipartitions(n)):
            return amps


def to_modp(amps: dict) -> dict:
    return {index: modp.gauss(re, im) for index, (re, im) in amps.items()}


def op_to_modp(op):
    return tuple(tuple(modp.gauss(*entry) for entry in row) for row in op)


def format_gauss(value) -> str:
    """Scalar-grammar text of a Gaussian integer: ``3``, ``-2i``, ``3-2i``."""
    re, im = value
    if not im:
        return str(re)
    imag = {1: "i", -1: "-i"}.get(im, f"{im}i")
    if not re:
        return imag
    return f"{re}{imag}" if imag.startswith("-") else f"{re}+{imag}"


def write_state(amps: dict, n: int, path) -> None:
    """State file in the documented JSON format."""
    payload = {
        "n": n,
        "amplitudes": [{"index": i, "value": format_gauss(amps[i])} for i in sorted(amps)],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
