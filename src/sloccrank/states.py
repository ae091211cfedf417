"""Sparse pure n-qubit states and the named generator families.

States are unnormalized on purpose: every rank-based quantity downstream is
invariant under global rescaling, and dropping normalization constants such
as 1/sqrt(3) keeps all amplitudes inside Q(i, sqrt2).  Relative coefficients
inside a state are kept exactly because those do change the rank.
"""

from __future__ import annotations

import json
from fractions import Fraction
from types import MappingProxyType

from .scalar import GaussRational, ParseError, Scalar, ZERO, as_scalar, scalar_format, scalar_parse

__all__ = [
    "MAX_QUBITS",
    "StateFormatError",
    "PureState",
    "basis_state",
    "ghz_state",
    "dicke_state",
    "ladder_state",
    "family_state",
    "load_state",
    "save_state",
]

MAX_QUBITS = 16


class StateFormatError(ValueError):
    """Raised when a state file violates the on-disk JSON schema."""


def check_qubits(n) -> None:
    """Reject a qubit count outside 1..MAX_QUBITS before any 2^n work starts."""
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be an int in 1..{MAX_QUBITS}, got {n!r}")


class PureState:
    """Unnormalized n-qubit state: sparse map from basis index to amplitude.

    Qubit 1 is the most significant bit of the index, so the first n//2
    qubits of an index are exactly the row bits of the coefficient matrix.
    ``amps`` holds its indices in ascending order, whatever the order they
    were given in: the amplitude vector in the order the paper reshapes it.
    So the k-th amplitude of a state whose every index holds one is that of
    index k.  ``amps`` is a read-only view: writing to it raises
    ``TypeError``, since three private slots keep results derived from it,
    each ``None`` until its first use: ``_image``, the last ``apply_local``
    image with its operators; ``_det``, the determinant of the identity
    cut; and ``_scaled``, the amplitudes scaled to Z[i, sqrt2] that every
    cut's rank and determinant and every transform of the state read.  Zero
    amplitudes are dropped on construction.  A state with no amplitude at
    all cannot be built directly; it is only produced via :meth:`zero`, the
    image of a singular local operator.
    """

    __slots__ = ("n", "amps", "_image", "_det", "_scaled")

    def __init__(self, n: int, amps, *, allow_zero: bool = False) -> None:
        check_qubits(n)
        dim = 1 << n
        for index in amps:
            if type(index) is int and 0 <= index < dim:
                continue
            if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index < dim:
                raise ValueError(f"basis index {index!r} out of range for n={n}")
        cleaned: dict[int, Scalar] = {}
        for index in sorted(amps):
            value = amps[index]
            if type(value) is not Scalar:
                value = as_scalar(value)
            if value.coords != (0, 0, 0, 0, 1):  # not zero, as Scalar.__bool__ tests it
                cleaned[index] = value
        if not cleaned and not allow_zero:
            raise ValueError("state must have at least one nonzero amplitude")
        self.n = n
        self.amps = MappingProxyType(cleaned)
        self._image = self._det = self._scaled = None

    @classmethod
    def zero(cls, n: int) -> PureState:
        """The all-zero vector on n qubits (not a physical state)."""
        return cls(n, {}, allow_zero=True)

    @property
    def is_zero(self) -> bool:
        return not self.amps

    def amplitude(self, index: int) -> Scalar:
        return self.amps.get(index, ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PureState):
            return NotImplemented
        return self.n == other.n and self.amps == other.amps

    def __repr__(self) -> str:
        return f"PureState(n={self.n}, {len(self.amps)} amplitudes)"



def basis_state(n: int, index: int) -> PureState:
    """The computational basis state with a single unit amplitude."""
    return PureState(n, {index: 1})


def ghz_state(n: int) -> PureState:
    """|0...0> + |1...1> on n >= 2 qubits."""
    check_qubits(n)
    if n < 2:
        raise ValueError("GHZ states need at least 2 qubits")
    return PureState(n, {0: 1, (1 << n) - 1: 1})


def dicke_state(n: int, ell: int) -> PureState:
    """Equal superposition of every basis state with exactly ``ell`` ones."""
    check_qubits(n)
    if n < 2:
        raise ValueError("Dicke states need at least 2 qubits")
    if not 1 <= ell <= n - 1:
        raise ValueError(f"excitation count must be in 1..{n - 1}, got {ell}")
    return PureState(n, {i: 1 for i in range(1 << n) if i.bit_count() == ell})


def ladder_state(n: int, r: int) -> PureState:
    """Corner pair |0> - |2^n - 1> plus r unit steps down the matrix diagonal.

    Its coefficient matrix is diagonal with r + 2 nonzero entries, so the
    state witnesses rank r + 2.
    """
    check_qubits(n)
    if n < 4:
        raise ValueError("ladder states need at least 4 qubits")
    limit = (1 << (n // 2)) - 2
    if not 1 <= r <= limit:
        raise ValueError(f"r must be in 1..{limit} for n={n}, got {r}")
    step = (1 << ((n + 1) // 2)) + 1
    amps: dict[int, object] = {0: 1, (1 << n) - 1: -1}
    for k in range(1, r + 1):
        amps[k * step] = 1
    return PureState(n, amps)


_FAMILY_PARAMS = {
    "L_a2b2": ("a", "b"),
    "L_ab3": ("a", "b"),
    "L_abc2": ("a", "b", "c"),
    "span_0kPsi": ("alpha", "beta"),
}

_HALF = Fraction(1, 2)
# i/sqrt(2) written as (i/2)*sqrt(2) to stay inside the field
_I_OVER_SQRT2 = Scalar(0, GaussRational(0, _HALF))


def family_state(name: str, **params) -> PureState:
    """One of the built-in parameterized four-qubit families.

    Parameter values may be ints, Fractions or Scalars;
    terms whose coefficient evaluates to zero are omitted from the map.
    """
    if name not in _FAMILY_PARAMS:
        raise ValueError(f"unknown family {name!r}; expected one of {sorted(_FAMILY_PARAMS)}")
    wanted = _FAMILY_PARAMS[name]
    missing = [p for p in wanted if p not in params]
    if missing:
        raise ValueError(f"family {name} is missing parameter(s): {', '.join(missing)}")
    extra = [p for p in params if p not in wanted]
    if extra:
        raise ValueError(f"family {name} got unexpected parameter(s): {', '.join(extra)}")
    vals = {key: as_scalar(value) for key, value in params.items()}

    if name == "L_a2b2":
        a, b = vals["a"], vals["b"]
        amps = {0: a, 15: a, 5: b, 10: b, 3: 1, 6: 1}
    elif name == "L_ab3":
        a, b = vals["a"], vals["b"]
        plus = (a + b) * _HALF
        minus = (a - b) * _HALF
        w = _I_OVER_SQRT2
        amps = {0: a, 15: a, 5: plus, 10: plus, 6: minus, 9: minus, 1: w, 2: w, 7: w, 11: w}
    elif name == "L_abc2":
        a, b, c = vals["a"], vals["b"], vals["c"]
        plus = (a + b) * _HALF
        minus = (a - b) * _HALF
        amps = {0: plus, 15: plus, 3: minus, 12: minus, 5: c, 10: c, 6: 1}
    else:  # span_0kPsi
        amps = {0: 1, 12: 1, 3: vals["alpha"], 15: vals["beta"]}
    return PureState(4, amps)


def save_state(state: PureState, path) -> None:
    """Write a state as JSON with amplitudes in ascending index order.

    The bytes are those of ``json.dump`` with ``indent=2`` and a final
    newline, formatted here one block per amplitude, because with an indent
    the json module falls back to its pure-Python encoder.
    """
    if state.is_zero:
        raise StateFormatError("the zero state cannot be serialized")
    blocks = ",\n".join(
        f'    {{\n      "index": {index},\n      "value": {json.dumps(scalar_format(value))}\n    }}'
        for index, value in state.amps.items()
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{{\n  "n": {state.n},\n  "amplitudes": [\n{blocks}\n  ]\n}}\n')


def _read_json(path, error, prefix: str):
    """The JSON value in the file at ``path``.

    A file that does not parse raises ``error`` with the message
    ``"<prefix>: <reason>"``, the reason being "nested too deeply" when the
    parser ran out of stack.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:  # bad syntax, or an integer over the int-string limit
            raise error(f"{prefix}: {exc}") from exc
        except RecursionError as exc:
            raise error(f"{prefix}: nested too deeply") from exc


def load_state(path) -> PureState:
    """Read a state file, validating the schema strictly.

    Indices must be in range, which is checked first, and strictly
    increasing; values must parse in the scalar grammar, and explicit zero
    amplitudes are rejected.
    """
    payload = _read_json(path, StateFormatError, "not valid JSON")
    if not isinstance(payload, dict):
        raise StateFormatError("top level must be a JSON object")
    unknown = set(payload) - {"n", "amplitudes"}
    if unknown:
        raise StateFormatError(f"unknown key(s): {', '.join(sorted(unknown))}")
    n = payload.get("n")
    try:
        check_qubits(n)
    except ValueError as exc:
        raise StateFormatError(f"'n': {exc}") from exc
    entries = payload.get("amplitudes")
    if not isinstance(entries, list) or not entries:
        raise StateFormatError("'amplitudes' must be a nonempty array")
    dim = 1 << n
    amps: dict[int, Scalar] = {}
    previous = -1
    for position, item in enumerate(entries):
        if not isinstance(item, dict) or set(item) != {"index", "value"}:
            raise StateFormatError(f"amplitude {position}: expected an object with index and value")
        index = item["index"]
        if not isinstance(index, int) or isinstance(index, bool):
            raise StateFormatError(f"amplitude {position}: index must be an integer")
        if not 0 <= index < dim:
            raise StateFormatError(f"amplitude {position}: index {index} out of range for n={n}")
        if index <= previous:
            raise StateFormatError(
                f"amplitude {position}: indices must be strictly increasing (saw {index} after {previous})"
            )
        text = item["value"]
        if not isinstance(text, str):
            raise StateFormatError(f"amplitude {position}: value must be a string")
        try:
            value = scalar_parse(text)
        except ParseError as exc:
            raise StateFormatError(f"amplitude {position}: bad scalar {text!r}: {exc}") from exc
        if not value:
            raise StateFormatError(f"amplitude {position}: explicit zero amplitudes are rejected")
        amps[index] = value
        previous = index
    return PureState(n, amps)
