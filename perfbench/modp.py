"""Independent checker: reshape, rank, det and local operators over F_p.

Nothing here imports sloccrank.  The prime is p = 15 * 2^27 + 1, and
p = 1 (mod 8), so F_p holds a primitive 8th root of unity zeta; i = zeta^2
and sqrt2 = zeta + zeta^-1 then embed Q(i, sqrt2) with p-free denominators
into F_p by a ring map.  Ranks can only drop under that map, so a mod-p rank
is a lower bound on the exact rank and a certificate for "rank >= r".

Amplitudes are dicts ``{basis index: value mod p}``; qubit 1 is the most
significant bit of the index, as in the program's file format.
"""

from __future__ import annotations

import re
from fractions import Fraction

P = 2013265921


def _primitive_eighth_root() -> int:
    for g in range(2, 100):
        if pow(g, (P - 1) // 2, P) == P - 1:  # a non-residue
            return pow(g, (P - 1) // 8, P)
    raise AssertionError("no quadratic non-residue below 100")


ZETA8 = _primitive_eighth_root()
I = ZETA8 * ZETA8 % P
SQRT2 = (ZETA8 + pow(ZETA8, -1, P)) % P


def rational(value) -> int:
    """Image of an int or Fraction; its denominator must be prime to p."""
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, P) % P


def gauss(re, im) -> int:
    """Image of re + im*i."""
    return (rational(re) + I * rational(im)) % P


_TOKEN = re.compile(r"\s*(\d+|s2|[-+*/()i])")


def parse(text: str) -> int:
    """Image of a value written in the program's scalar text grammar.

    Reading the printed form, not the program's objects, keeps the checker
    independent of how the program stores a field element.
    """
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            raise ValueError(f"bad scalar text {text!r} at {pos}")
        tokens.append(match.group(1))
        pos = match.end()
    tokens.append("")
    at = 0

    def take(expected=None) -> str:
        nonlocal at
        token = tokens[at]
        if expected is not None and token != expected:
            raise ValueError(f"bad scalar text {text!r}: expected {expected!r}")
        at += 1
        return token

    def term() -> int:
        if tokens[at] == "i":
            take()
            return I
        value = int(take())
        if tokens[at] == "/":
            take()
            value = value * pow(int(take()), -1, P)
        if tokens[at] == "i":
            take()
            value *= I
        return value % P

    def signed_sum(atom) -> int:
        total = 0
        sign = 1
        while True:
            if tokens[at] and tokens[at] in "+-":
                sign = -1 if take() == "-" else 1
            total += sign * atom()
            if not tokens[at] or tokens[at] not in "+-":
                return total % P

    def atom() -> int:
        if tokens[at] == "(":
            take()
            value = signed_sum(term)
            take(")")
            take("*")
            take("s2")
            return value * SQRT2
        if tokens[at] == "s2":
            take()
            return SQRT2
        value = term()
        if tokens[at] == "*":
            take()
            take("s2")
            value *= SQRT2
        return value

    value = signed_sum(atom)
    if tokens[at]:
        raise ValueError(f"bad scalar text {text!r}: trailing {tokens[at]!r}")
    return value


def row_qubits(n: int, transpositions) -> tuple[int, ...]:
    """Qubits on the row side after exchanging each row qubit q with column qubit t."""
    rows = set(range(1, n // 2 + 1))
    for q, t in transpositions:
        rows.remove(q)
        rows.add(t)
    return tuple(sorted(rows))


def reshape(amps: dict, n: int, rows=None) -> list[list[int]]:
    """Coefficient matrix with the given row qubits (default 1..n//2), both sides ascending."""
    rows = tuple(range(1, n // 2 + 1)) if rows is None else tuple(rows)
    cols = tuple(q for q in range(1, n + 1) if q not in rows)
    grid = [[0] * (1 << len(cols)) for _ in range(1 << len(rows))]
    for index, value in amps.items():
        r = 0
        for q in rows:
            r = (r << 1) | ((index >> (n - q)) & 1)
        c = 0
        for q in cols:
            c = (c << 1) | ((index >> (n - q)) & 1)
        grid[r][c] = value % P
    return grid


def rank(matrix) -> int:
    grid = [[x % P for x in row] for row in matrix]
    r = 0
    for c in range(len(grid[0]) if grid else 0):
        pivot = next((i for i in range(r, len(grid)) if grid[i][c]), None)
        if pivot is None:
            continue
        grid[r], grid[pivot] = grid[pivot], grid[r]
        inv = pow(grid[r][c], -1, P)
        lead = grid[r]
        for i in range(r + 1, len(grid)):
            factor = grid[i][c] * inv % P
            if factor:
                grid[i] = [(x - factor * y) % P for x, y in zip(grid[i], lead)]
        r += 1
    return r


def det(matrix) -> int:
    grid = [[x % P for x in row] for row in matrix]
    n = len(grid)
    result = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if grid[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            grid[c], grid[pivot] = grid[pivot], grid[c]
            result = -result
        lead = grid[c]
        result = result * lead[c] % P
        inv = pow(lead[c], -1, P)
        for i in range(c + 1, n):
            factor = grid[i][c] * inv % P
            if factor:
                grid[i] = [(x - factor * y) % P for x, y in zip(grid[i], lead)]
    return result % P


def apply_local(amps: dict, n: int, ops) -> dict:
    """Act with one 2x2 matrix (entries mod p) per qubit, qubit 1 first."""
    amps = {index: value % P for index, value in amps.items() if value % P}
    for qubit, ((m00, m01), (m10, m11)) in enumerate(ops, start=1):
        mask = 1 << (n - qubit)
        out: dict[int, int] = {}
        for base in {index & ~mask for index in amps}:
            lo = amps.get(base, 0)
            hi = amps.get(base | mask, 0)
            new_lo = (m00 * lo + m01 * hi) % P
            new_hi = (m10 * lo + m11 * hi) % P
            if new_lo:
                out[base] = new_lo
            if new_hi:
                out[base | mask] = new_hi
        amps = out
    return amps


def certify_rank(matrix, claimed: int) -> bool:
    """True when the mod-p rank equals ``claimed``.

    A claim above the mod-p rank is not certified; a claim below it is
    refuted outright, since the exact rank is at least the mod-p rank.
    """
    return rank(matrix) == claimed
