"""Command-line surface: generation, ranks, signatures, verification, tables.

Machine-readable JSON goes to stdout, human-readable notes to stderr.
Exit codes: 0 when the command succeeded and every check passed, 1 when a
verification or table check failed or stdout was closed before the JSON was
written, 2 for usage or input errors.  All randomness flows from the --seed
flag, so identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain

from .classify import TABLE_IDS, classify_table, dicke_rank_scan, rank_signature
from .coeffmatrix import QubitPermutation, coefficient_matrix, enumerate_sigmas
from .rank import NumericFailure, exact_rank, numeric_rank
from .scalar import ParseError, scalar_parse
from .slocc import verify_trials
from .states import (
    _FAMILY_PARAMS,
    basis_state,
    dicke_state,
    family_state,
    ghz_state,
    ladder_state,
    load_state,
    save_state,
)

# Each n-qubit gen family: its builder, called as builder(n, *flags), and its int flags in payload order.
_BUILDERS = {
    "basis": (basis_state, ("index",)),
    "ghz": (ghz_state, ()),
    "w": (lambda n: dicke_state(n, 1), ()),
    "dicke": (dicke_state, ("ell",)),
    "ladder": (ladder_state, ("r",)),
}
# The flags each gen family takes besides --n; any other one is a usage error.
_GEN_FLAGS = {**{family: flags for family, (_, flags) in _BUILDERS.items()}, **_FAMILY_PARAMS}
# Every family parameter once, in first-use order: a, b, c, alpha, beta.
_PARAM_NAMES = tuple(dict.fromkeys(chain.from_iterable(_FAMILY_PARAMS.values())))
# The most --trials or --samples a command takes: the work grows linearly in
# the count, so a larger one would only keep the command busy for hours.
MAX_REPEATS = 1000


class UsageError(Exception):
    """Input problem that should exit with code 2."""


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sloccrank",
        description="Classify pure n-qubit states by exact coefficient-matrix ranks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a named state and write it to a JSON file")
    gen.set_defaults(handler=_cmd_gen)
    gen.add_argument("--family", required=True, choices=_GEN_FLAGS)
    gen.add_argument("--n", type=int, required=True, help="qubit count")
    gen.add_argument("--ell", type=int, help="excitation count (dicke)")
    gen.add_argument("--r", type=int, help="diagonal steps (ladder)")
    gen.add_argument("--index", type=int, help="basis index (basis, default 0)")
    for name in _PARAM_NAMES:
        gen.add_argument(f"--{name}", help=f"family parameter {name} (scalar grammar)")
    gen.add_argument("-o", "--output", required=True, help="output state file")

    rank_cmd = sub.add_parser("rank", help="rank of a state's coefficient matrix")
    rank_cmd.set_defaults(handler=_cmd_rank)
    rank_cmd.add_argument("--state", required=True)
    rank_cmd.add_argument("--sigma", default="", help='swap set as "q:t,..." (default: identity)')
    rank_cmd.add_argument("--numeric", action="store_true", help="use the SVD backend instead")
    rank_cmd.add_argument("--tol", type=float, help="singular-value threshold for --numeric")

    sig = sub.add_parser("signature", help="ranks under a list of swap sets")
    sig.set_defaults(handler=_cmd_signature)
    sig.add_argument("--state", required=True)
    sig.add_argument("--sigmas", default="all", help='"all" or semicolon-separated swap sets')

    perms = sub.add_parser("permutations", help="list the enumerated swap sets for n qubits")
    perms.set_defaults(handler=_cmd_permutations)
    perms.add_argument("--n", type=int, required=True)

    verify = sub.add_parser("verify", help="randomized checks of the transformation identities")
    verify.set_defaults(handler=_cmd_verify)
    verify.add_argument("--state", required=True)
    verify.add_argument("--trials", type=int, required=True, help=f"trial count, 1..{MAX_REPEATS}")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--allow-singular", action="store_true",
                        help="draw unconstrained operators and check rank monotonicity")

    table = sub.add_parser("table", help="reproduce one of the built-in family tables")
    table.set_defaults(handler=_cmd_table)
    table.add_argument("--id", required=True, choices=TABLE_IDS)
    table.add_argument("--samples", type=int, required=True, help=f"samples per cell, 1..{MAX_REPEATS}")
    table.add_argument("--seed", type=int, default=0)

    scan = sub.add_parser("dicke-scan", help="rank and row structure of the Dicke states")
    scan.set_defaults(handler=_cmd_dicke_scan)
    scan.add_argument("--n", type=int, required=True)

    return parser


def _parse_scalar_flag(name: str, text: str | None):
    if text is None:
        raise UsageError(f"family parameter --{name} is required")
    try:
        return scalar_parse(text)
    except ParseError as exc:
        raise UsageError(f"bad scalar for --{name}: {exc}") from exc


def _check_repeats(flag: str, count: int) -> None:
    if not 1 <= count <= MAX_REPEATS:
        raise UsageError(f"{flag} must be in 1..{MAX_REPEATS}, got {count}")


def _cmd_gen(args) -> tuple[dict, int]:
    family = args.family
    names = _GEN_FLAGS[family]
    for name in chain.from_iterable(_GEN_FLAGS.values()):
        if getattr(args, name) is not None and name not in names:
            raise UsageError(f"gen --family {family} does not take --{name}")
    flags = {name: getattr(args, name) for name in names}
    if family == "basis" and flags["index"] is None:
        flags["index"] = 0
    if family in _BUILDERS:
        for name, value in flags.items():
            if value is None:
                raise UsageError(f"gen --family {family} requires --{name}")
        state = _BUILDERS[family][0](args.n, *flags.values())
    else:
        if args.n != 4:
            raise UsageError(f"family {family} is defined on 4 qubits")
        state = family_state(family, **{name: _parse_scalar_flag(name, text) for name, text in flags.items()})
    save_state(state, args.output)
    payload = {"family": family, "n": args.n, **flags, "terms": len(state.amps), "output": args.output}
    _log(f"gen: wrote {family} state on {state.n} qubits to {args.output}")
    return payload, 0


def _cmd_rank(args) -> tuple[dict, int]:
    if args.tol is not None and not args.numeric:
        raise UsageError("--tol applies only with --numeric")
    state = load_state(args.state)
    sigma = QubitPermutation.from_text(args.sigma)
    matrix = coefficient_matrix(state, sigma)
    if args.numeric:
        value = numeric_rank(matrix, tol=args.tol)
        payload = {"rank": value, "sigma": args.sigma, "numeric": True}
        if args.tol is not None:
            payload["tol"] = args.tol
    else:
        payload = {"rank": exact_rank(matrix).rank, "sigma": args.sigma}
    _log(f"rank: n={state.n}, sigma={args.sigma!r}")
    return payload, 0


def _cmd_signature(args) -> tuple[dict, int]:
    state = load_state(args.state)
    if args.sigmas == "all":
        sigmas = enumerate_sigmas(state.n)
    else:
        sigmas = [QubitPermutation.from_text(chunk) for chunk in args.sigmas.split(";")]
    payload = {"n": state.n, **rank_signature(state, sigmas).to_json_dict()}
    _log(f"signature: n={state.n}, {len(sigmas)} swap sets")
    return payload, 0


def _cmd_permutations(args) -> tuple[dict, int]:
    sigmas = enumerate_sigmas(args.n)
    payload = {"n": args.n, "count": len(sigmas), "sigmas": [s.to_text() for s in sigmas]}
    return payload, 0


def _cmd_verify(args) -> tuple[dict, int]:
    _check_repeats("--trials", args.trials)
    state = load_state(args.state)
    checks = verify_trials(state, args.trials, args.seed, args.allow_singular)
    failed = any(check["failures"] for check in checks.values())
    payload = {
        "state": args.state,
        "n": state.n,
        "trials": args.trials,
        "seed": args.seed,
        "allow_singular": args.allow_singular,
        "checks": checks,
        "pass": not failed,
    }
    _log(f"verify: {args.trials} trials on n={state.n}, {'FAILED' if failed else 'all checks passed'}")
    return payload, 1 if failed else 0


def _cmd_table(args) -> tuple[dict, int]:
    _check_repeats("--samples", args.samples)
    report = classify_table(args.id, args.samples, args.seed)
    _log(f"table {args.id}: {'PASS' if report.passed else 'FAIL'}")
    return report.to_json_dict(), 0 if report.passed else 1


def _cmd_dicke_scan(args) -> tuple[dict, int]:
    try:
        rows = dicke_rank_scan(args.n)
    except RuntimeError as exc:
        # The scan re-checks the rank engine against the Dicke theorem; a
        # mismatch is a failed check, reported like a failing verify.
        _log(f"dicke-scan: FAILED: {exc}")
        return {"n": args.n, "error": str(exc), "pass": False}, 1
    payload = {
        "n": args.n,
        "rows": [
            {
                "ell": row.ell,
                "rank": row.rank,
                "distinct_rows": row.distinct_nonzero_rows,
                "row_multiplicities": list(row.row_multiplicities),
            }
            for row in rows
        ],
        "pass": True,
    }
    return payload, 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.handler(args)
    except (UsageError, NumericFailure, ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return 2
    try:
        print(json.dumps(payload))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (as in ``| head``).  Point stdout at devnull so
        # the flush at interpreter exit cannot raise again, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
