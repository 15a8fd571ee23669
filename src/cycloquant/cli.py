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
import json
import os
import sys

from .criteria import (
    LENS_SPACE_2_1_LEVEL_5,
    ObstructionVerdict,
    check_cor_1_2,
    check_thm_1_1,
    check_thm_4_1,
    check_thm_5_1,
    powers_of_A_char0,
)
from .gauss import g_r, gauss_sum, quantum_int
from .links import (
    FramedBraidLink,
    LinkingMatrix,
    j_invariant,
    linking_matrix,
    signature_counts,
)
from .moo import moo_fast
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

_ERRORS = (
    ValueError,
    KeyError,
    OrderMismatchError,
    NotAUnitError,
    DenominatorNotInvertibleError,
    ZeroDivisionError,
    RecursionBudgetExceeded,
    OSError,
    json.JSONDecodeError,
)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _load_braid(path: str) -> FramedBraidLink:
    return FramedBraidLink.from_dict(_load_json(path))


def _load_matrix(path: str) -> LinkingMatrix:
    return LinkingMatrix.from_dict(_load_json(path))


def _verdict_exit(verdict: ObstructionVerdict) -> int:
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
    for s, elem in enumerate(powers_of_A_char0(args.r)):
        print(f"A^{s} = {elem}")
    return 0


def _cmd_jinv(args) -> int:
    link = _load_braid(args.braid)
    print(j_invariant(link.braid))
    return 0


def _cmd_lkmatrix(args) -> int:
    print(json.dumps(linking_matrix(_load_braid(args.braid)).to_dict()))
    return 0


def _cmd_signature(args) -> int:
    sig = signature_counts(_load_matrix(args.matrix))
    print(f"sigma_plus = {sig.sigma_plus}")
    print(f"sigma_minus = {sig.sigma_minus}")
    print(f"nullity = {sig.nullity}")
    return 0


def _cmd_moo(args) -> int:
    print(moo_fast(_load_matrix(args.matrix), args.n))
    return 0


def _cmd_check_cor12(args) -> int:
    v = parse_ring_element(args.v, 3 * args.r)
    return _verdict_exit(check_cor_1_2(v, args.r, args.p))


def _cmd_check_thm11(args) -> int:
    vm = parse_ring_element(args.vm, 3 * args.r)
    vmbar = parse_ring_element(args.vmbar, 3 * args.r)
    return _verdict_exit(check_thm_1_1(vm, vmbar, args.r, args.p))


def _cmd_check_thm41(args) -> int:
    lift = _load_braid(args.lift)
    quotient = _load_braid(args.quotient)
    if check_thm_4_1(lift.braid, quotient.braid, args.p):
        print("CONSISTENT")
        return 0
    print("OBSTRUCTED")
    return 1


def _cmd_check_thm51(args) -> int:
    b = _load_matrix(args.b)
    bbar = _load_matrix(args.bbar)
    return _verdict_exit(check_thm_5_1(b, bbar, args.p, args.n))


def _cmd_repro_remark13(args) -> int:
    print(f"Phi_15 = {cyclotomic_poly(15)}")
    for s, elem in enumerate(powers_of_A_char0(5)):
        print(f"A^{s} = {elem}")
    print(f"I_5(L(2,1)) = {LENS_SPACE_2_1_LEVEL_5}")
    obstructed = 0
    for p in (11, 19, 29, 31):
        verdict = check_cor_1_2(LENS_SPACE_2_1_LEVEL_5, 5, p)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycloquant",
        description="Exact quantum 3-manifold invariants and periodicity tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="print the k-th cyclotomic polynomial")
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("reduce", help="reduce a Laurent polynomial into a quotient")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("qint", help="quantum integer [n] in a quotient")
    p.add_argument("n", type=int)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_qint)

    p = sub.add_parser("gauss", help="quadratic sum of A^(a j^2), j < n")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_gauss)

    p = sub.add_parser("gr", help="the ratio G_r and its recorded sign")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_gr)

    p = sub.add_parser("powers", help="reduced powers of A at level r")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_powers)

    p = sub.add_parser("jinv", help="J invariant of a braid closure")
    p.add_argument("--braid", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_jinv)

    p = sub.add_parser("lkmatrix", help="linking matrix of a framed braid closure")
    p.add_argument("--braid", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_lkmatrix)

    p = sub.add_parser("signature", help="exact inertia of a symmetric matrix")
    p.add_argument("--matrix", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_signature)

    p = sub.add_parser("moo", help="the surgery invariant Z_N of a linking matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--matrix", required=True, metavar="FILE")
    p.add_argument("--fast", action="store_true", help=_FAST_HELP)
    p.set_defaults(func=_cmd_moo)

    p = sub.add_parser("check-cor12", help="branched cyclic cover obstruction")
    p.add_argument("--v", required=True, help="invariant value at order 3r")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=_cmd_check_cor12)

    p = sub.add_parser("check-thm11", help="periodic manifold congruence")
    p.add_argument("--vm", required=True, help="invariant value of M")
    p.add_argument("--vmbar", required=True, help="invariant value of the quotient")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=_cmd_check_thm11)

    p = sub.add_parser("check-thm41", help="periodic link congruence on J")
    p.add_argument("--lift", required=True, metavar="FILE")
    p.add_argument("--quotient", required=True, metavar="FILE")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=_cmd_check_thm41)

    p = sub.add_parser("check-thm51", help="periodic homology sphere congruence")
    p.add_argument("--b", required=True, metavar="FILE")
    p.add_argument("--bbar", required=True, metavar="FILE")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fast", action="store_true", help=_FAST_HELP)
    p.set_defaults(func=_cmd_check_thm51)

    p = sub.add_parser(
        "repro-remark13",
        help="reproduce the lens-space branched-cover obstruction end to end",
    )
    p.set_defaults(func=_cmd_repro_remark13)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
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
