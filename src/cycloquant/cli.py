"""Command-line front end.

Subcommands cover the exact-arithmetic building blocks (phi, reduce,
qint, gauss, gr, powers), braid-closure computations (jinv, lkmatrix,
signature), the surgery invariant (moo), and the obstruction tests
(check-cor12, check-thm11, check-thm41, check-thm51, repro-remark13).

Exit codes: 0 when a check is consistent (or a plain computation
succeeded), 1 when a check reports an obstruction, 2 on malformed
input or violated preconditions, 141 (128 + SIGPIPE) when stdout is
closed before the output is written, as by `| head`. Output is
deterministic: identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys

# the package registers its modules lazily: reached through module
# attributes at call time, criteria, links and moo are executed only by
# the commands that call them
from . import criteria, links, moo
from .gauss import g_r, gauss_sum, quantum_int
from .rings import (
    DenominatorNotInvertibleError,
    NotAUnitError,
    OrderMismatchError,
    RecursionBudgetExceeded,
    cyclotomic_poly,
    parse_laurent,
    parse_ring_element,
    reduce,
)

# json.JSONDecodeError is a ValueError
_ERRORS = (
    ValueError,
    KeyError,
    OrderMismatchError,
    NotAUnitError,
    DenominatorNotInvertibleError,
    ZeroDivisionError,
    RecursionBudgetExceeded,
    OSError,
)


def _load_json(path: str) -> dict:
    import json

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _load_braid(path: str) -> links.FramedBraidLink:
    return links.FramedBraidLink.from_dict(_load_json(path))


def _load_matrix(path: str) -> links.LinkingMatrix:
    return links.LinkingMatrix.from_dict(_load_json(path))


def _verdict_exit(verdict: criteria.ObstructionVerdict) -> int:
    if verdict.satisfied:
        w = verdict.witness
        print(f"CONSISTENT epsilon={w.epsilon} s={w.s} alpha={w.alpha}")
        return 0
    print("OBSTRUCTED")
    return 1


# ---------------------------------------------------------------------------
# handlers


def _cmd_phi(args) -> int:
    print(cyclotomic_poly(args.k))
    return 0


def _cmd_reduce(args) -> int:
    print(reduce(parse_laurent(args.poly), args.order))
    return 0


def _cmd_qint(args) -> int:
    print(quantum_int(args.n, args.order))
    return 0


def _cmd_gauss(args) -> int:
    print(gauss_sum(args.a, args.n, args.order))
    return 0


def _cmd_gr(args) -> int:
    result = g_r(args.r)
    print(f"G_{args.r} = {result.value}")
    print(f"epsilon = {result.epsilon}")
    return 0


def _cmd_powers(args) -> int:
    for s, elem in enumerate(criteria.powers_of_A_char0(args.r)):
        print(f"A^{s} = {elem}")
    return 0


def _cmd_jinv(args) -> int:
    link = _load_braid(args.braid)
    print(links.j_invariant(link.braid))
    return 0


def _cmd_lkmatrix(args) -> int:
    import json

    print(json.dumps(links.linking_matrix(_load_braid(args.braid)).to_dict()))
    return 0


def _cmd_signature(args) -> int:
    sig = links.signature_counts(_load_matrix(args.matrix))
    print(f"sigma_plus = {sig.sigma_plus}")
    print(f"sigma_minus = {sig.sigma_minus}")
    print(f"nullity = {sig.nullity}")
    return 0


def _cmd_moo(args) -> int:
    print(moo.moo_fast(_load_matrix(args.matrix), args.n))
    return 0


def _cmd_check_cor12(args) -> int:
    v = parse_ring_element(args.v, 3 * args.r)
    return _verdict_exit(criteria.check_cor_1_2(v, args.r, args.p))


def _cmd_check_thm11(args) -> int:
    vm = parse_ring_element(args.vm, 3 * args.r)
    vmbar = parse_ring_element(args.vmbar, 3 * args.r)
    return _verdict_exit(criteria.check_thm_1_1(vm, vmbar, args.r, args.p))


def _cmd_check_thm41(args) -> int:
    lift = _load_braid(args.lift)
    quotient = _load_braid(args.quotient)
    if criteria.check_thm_4_1(lift.braid, quotient.braid, args.p):
        print("CONSISTENT")
        return 0
    print("OBSTRUCTED")
    return 1


def _cmd_check_thm51(args) -> int:
    b = _load_matrix(args.b)
    bbar = _load_matrix(args.bbar)
    return _verdict_exit(criteria.check_thm_5_1(b, bbar, args.p, args.n))


def _cmd_repro_remark13(args) -> int:
    print(f"Phi_15 = {cyclotomic_poly(15)}")
    for s, elem in enumerate(criteria.powers_of_A_char0(5)):
        print(f"A^{s} = {elem}")
    lens = criteria.LENS_SPACE_2_1_LEVEL_5
    print(f"I_5(L(2,1)) = {lens}")
    obstructed = 0
    for p in (11, 19, 29, 31):
        verdict = criteria.check_cor_1_2(lens, 5, p)
        if verdict.satisfied:
            w = verdict.witness
            print(f"p = {p}: CONSISTENT epsilon={w.epsilon} s={w.s} alpha={w.alpha}")
        else:
            obstructed += 1
            print(
                f"p = {p}: OBSTRUCTED "
                f"(L(2,1) is not the {p}-fold cyclic branched cover "
                f"of S^3 along any knot)"
            )
    if obstructed == 4:
        print("summary: PASS (all four primes obstructed)")
        return 0
    print(f"summary: FAIL ({4 - obstructed} of 4 primes unexpectedly consistent)")
    return 1


# ---------------------------------------------------------------------------
# parser

_FAST_HELP = "accepted and ignored: Z_N is always computed by the fast path"
_FAST = (("--fast",), {"action": "store_true", "help": _FAST_HELP})
_R = (("--r",), {"type": int, "required": True})
_P = (("--p",), {"type": int, "required": True})


def _file(flag: str) -> tuple:
    return ((flag,), {"required": True, "metavar": "FILE"})


# name -> (help, handler, arguments as (flags, keyword arguments))
_COMMANDS = {
    "phi": ("print the k-th cyclotomic polynomial", _cmd_phi, [(("k",), {"type": int})]),
    "reduce": (
        "reduce a Laurent polynomial into a quotient",
        _cmd_reduce,
        [(("--order",), {"type": int, "required": True}), (("--poly",), {"required": True})],
    ),
    "qint": (
        "quantum integer [n] in a quotient",
        _cmd_qint,
        [(("n",), {"type": int}), (("--order",), {"type": int, "required": True})],
    ),
    "gauss": (
        "quadratic sum of A^(a j^2), j < n",
        _cmd_gauss,
        [((f"--{x}",), {"type": int, "required": True}) for x in ("a", "n", "order")],
    ),
    "gr": ("the ratio G_r and its recorded sign", _cmd_gr, [_R]),
    "powers": ("reduced powers of A at level r", _cmd_powers, [_R]),
    "jinv": ("J invariant of a braid closure", _cmd_jinv, [_file("--braid")]),
    "lkmatrix": ("linking matrix of a framed braid closure", _cmd_lkmatrix, [_file("--braid")]),
    "signature": ("exact inertia of a symmetric matrix", _cmd_signature, [_file("--matrix")]),
    "moo": (
        "the surgery invariant Z_N of a linking matrix",
        _cmd_moo,
        [(("--n",), {"type": int, "required": True}), _file("--matrix"), _FAST],
    ),
    "check-cor12": (
        "branched cyclic cover obstruction",
        _cmd_check_cor12,
        [(("--v",), {"required": True, "help": "invariant value at order 3r"}), _R, _P],
    ),
    "check-thm11": (
        "periodic manifold congruence",
        _cmd_check_thm11,
        [
            (("--vm",), {"required": True, "help": "invariant value of M"}),
            (("--vmbar",), {"required": True, "help": "invariant value of the quotient"}),
            _R,
            _P,
        ],
    ),
    "check-thm41": (
        "periodic link congruence on J",
        _cmd_check_thm41,
        [_file("--lift"), _file("--quotient"), _P],
    ),
    "check-thm51": (
        "periodic homology sphere congruence",
        _cmd_check_thm51,
        [_file("--b"), _file("--bbar"), _P, (("--n",), {"type": int, "required": True}), _FAST],
    ),
    "repro-remark13": (
        "reproduce the lens-space branched-cover obstruction end to end",
        _cmd_repro_remark13,
        [],
    ),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with only `command`'s.

    A parser for one command gives the subcommand list the metavar that
    the full parser derives from its choices, so usage text is the same.
    """
    parser = argparse.ArgumentParser(
        prog="cycloquant",
        description="Exact quantum 3-manifold invariants and periodicity tests.",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, handler, arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flags, kwargs in arguments:
                p.add_argument(*flags, **kwargs)
            p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # --help, a missing command and an unknown one need every subparser
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return 0
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: send the unwritten rest to devnull, so the
        # interpreter's final flush stays quiet, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
