"""Tests for the command-line front end.

The CLI is exercised through ``main(argv)`` directly so exit codes and
output bytes are both visible. Golden outputs are frozen here; every
printed ring element must reparse to an equal value.
"""

import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from cycloquant import (
    BraidWord,
    LENS_SPACE_2_1_LEVEL_5,
    gauss_sum,
    j_invariant,
    parse_laurent,
    parse_ring_element,
    powers_of_A_char0,
    quantum_int,
    reduce,
)
from cycloquant.cli import main
from cycloquant.moo import moo_invariant


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# ring arithmetic subcommands


def test_phi_15_golden(capsys):
    code, out, _ = run_cli(capsys, "phi", "15")
    assert code == 0
    assert out == "1 - A + A^3 - A^4 + A^5 - A^7 + A^8\n"


def test_phi_small_orders(capsys):
    code, out, _ = run_cli(capsys, "phi", "1")
    assert code == 0
    assert out == "-1 + A\n"
    code, out, _ = run_cli(capsys, "phi", "2")
    assert code == 0
    assert out == "1 + A\n"


def _env_with_src() -> dict:
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_phi_30030_answers_cold():
    # a fresh process, so Phi_30030 is built from nothing within the bound
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "cycloquant", "phi", "30030"],
        capture_output=True,
        text=True,
        timeout=60,
        env=_env_with_src(),
    )
    assert time.perf_counter() - start < 2.0
    assert result.returncode == 0, result.stderr
    assert parse_laurent(result.stdout).max_exp == 5760


def test_closed_stdout_exits_141_quietly():
    # the read end is closed before the child starts, so its first write
    # fails (as under `| head`); 141 = 128 + SIGPIPE, and stderr stays empty.
    # stdout is block-buffered: Phi_15 sits in the buffer until a flush,
    # while Phi_30030 outgrows it and fails inside print
    env = _env_with_src()
    env.pop("PYTHONUNBUFFERED", None)
    for k in ("15", "30030"):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "cycloquant", "phi", k],
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=60,
                env=env,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (141, b""), k


def test_reduce_round_trip(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--order", "15", "--poly", "A^8")
    assert code == 0
    printed = parse_ring_element(out.strip(), 15)
    assert printed == reduce(parse_laurent("A^8"), 15)


def test_qint_round_trip(capsys):
    code, out, _ = run_cli(capsys, "qint", "3", "--order", "15")
    assert code == 0
    assert parse_ring_element(out.strip(), 15) == quantum_int(3, 15)


def test_gauss_golden_and_round_trip(capsys):
    code, out, _ = run_cli(capsys, "gauss", "--a", "1", "--n", "3", "--order", "3")
    assert code == 0
    assert out == "1 + 2A\n"
    assert parse_ring_element(out.strip(), 3) == gauss_sum(1, 3, 3)


def test_gr_prints_value_and_sign(capsys):
    code, out, _ = run_cli(capsys, "gr", "--r", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "G_5 = 1 - A^2 + A^3 + A^6 - A^7"
    assert lines[1] == "epsilon = -1"
    # The printed value reparses to the ninth power of A in the quotient.
    value = parse_ring_element(lines[0].split(" = ", 1)[1], 15)
    assert value == -parse_ring_element("A^-36", 15)


def test_powers_listing_round_trips(capsys):
    code, out, _ = run_cli(capsys, "powers", "--r", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 15
    expected = powers_of_A_char0(5)
    for s, line in enumerate(lines):
        label, text = line.split(" = ", 1)
        assert label == f"A^{s}"
        assert parse_ring_element(text, 15) == expected[s]


# ---------------------------------------------------------------------------
# braid and matrix subcommands


def test_jinv_golden(capsys, tmp_path):
    path = write_json(
        tmp_path, "hopf.json", {"strands": 2, "word": [1, 1], "framings": [0, 0]}
    )
    code, out, _ = run_cli(capsys, "jinv", "--braid", path)
    assert code == 0
    assert parse_laurent(out.strip()) == j_invariant(BraidWord(2, (1, 1)))


def test_jinv_default_framings(capsys, tmp_path):
    path = write_json(tmp_path, "unknot.json", {"strands": 1, "word": []})
    code, out, _ = run_cli(capsys, "jinv", "--braid", path)
    assert code == 0
    assert out == "A^-6 + 1 + A^6\n"


def test_jinv_over_budget_exits_2_fast(capsys, tmp_path):
    # the full twist on 8 strands outgrows the Hecke term budget
    path = write_json(
        tmp_path, "twist8.json", {"strands": 8, "word": list(range(1, 8)) * 8}
    )
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "jinv", "--braid", path)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "strands, word", [(1500, list(range(1, 1500))), (2000, [])], ids=["chain", "bare"]
)
def test_jinv_many_strands_exits_2_fast(capsys, tmp_path, strands, word):
    # the strand budget refuses these before any Hecke work
    path = write_json(tmp_path, "wide.json", {"strands": strands, "word": word})
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "jinv", "--braid", path)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err.startswith("error:") and "strands" in err


def test_lkmatrix_golden(capsys, tmp_path):
    path = write_json(
        tmp_path, "hopf.json", {"strands": 2, "word": [1, 1], "framings": [0, 0]}
    )
    code, out, _ = run_cli(capsys, "lkmatrix", "--braid", path)
    assert code == 0
    assert out == '{"matrix": [[0, 1], [1, 0]]}\n'


def test_signature_output(capsys, tmp_path):
    path = write_json(tmp_path, "m.json", {"matrix": [[2, 0, 0], [0, -3, 0], [0, 0, 0]]})
    code, out, _ = run_cli(capsys, "signature", "--matrix", path)
    assert code == 0
    assert out == "sigma_plus = 1\nsigma_minus = 1\nnullity = 1\n"


def test_moo_golden(capsys, tmp_path):
    path = write_json(tmp_path, "one.json", {"matrix": [[1]]})
    code, out, _ = run_cli(capsys, "moo", "--n", "3", "--matrix", path)
    assert code == 0
    assert out == "1\n"


def test_moo_fast_matches(capsys, tmp_path):
    # --fast is accepted and changes nothing; both print the oracle's value
    rows = [[2, 1], [1, -2]]
    want = f"{moo_invariant(rows, 15)}\n"
    path = write_json(tmp_path, "m.json", {"matrix": rows})
    for flags in ((), ("--fast",)):
        code, out, _ = run_cli(capsys, "moo", "--n", "15", "--matrix", path, *flags)
        assert (code, out) == (0, want)


def test_moo_30031_answers_cold(tmp_path):
    # a fresh process: Phi_30031 (degree 29464) and the 30031-term Gauss
    # sum's reduction are built from nothing within the bound
    matrix = write_json(tmp_path, "one.json", {"matrix": [[1]]})
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "cycloquant", "moo", "--n", "30031", "--matrix", matrix],
        capture_output=True,
        text=True,
        timeout=120,
        env=_env_with_src(),
    )
    assert time.perf_counter() - start < 2.0
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1\n"


def test_moo_half_integer_print(capsys, tmp_path):
    path = write_json(tmp_path, "zero.json", {"matrix": [[0]]})
    code, out, _ = run_cli(capsys, "moo", "--n", "5", "--matrix", path)
    assert code == 0
    assert out == "5 * 5^(-1/2)\n"


# ---------------------------------------------------------------------------
# obstruction subcommands and exit codes


def test_check_cor12_consistent(capsys):
    code, out, _ = run_cli(capsys, "check-cor12", "--v", "1", "--r", "5", "--p", "11")
    assert code == 0
    assert out == "CONSISTENT epsilon=1 s=0 alpha=0\n"


def test_check_cor12_obstructed(capsys):
    code, out, _ = run_cli(
        capsys, "check-cor12", "--v", str(LENS_SPACE_2_1_LEVEL_5), "--r", "5", "--p", "11"
    )
    assert code == 1
    assert out == "OBSTRUCTED\n"


def test_check_thm11_consistent(capsys):
    code, out, _ = run_cli(
        capsys, "check-thm11", "--vm", "1", "--vmbar", "1", "--r", "5", "--p", "11"
    )
    assert code == 0
    assert out.startswith("CONSISTENT")


def test_check_thm41_paths(capsys, tmp_path):
    lift = write_json(tmp_path, "lift.json", {"strands": 2, "word": [1, 1, 1]})
    quot = write_json(tmp_path, "quot.json", {"strands": 2, "word": [1]})
    code, out, _ = run_cli(
        capsys, "check-thm41", "--lift", lift, "--quotient", quot, "--p", "3"
    )
    assert code == 0
    assert out == "CONSISTENT\n"

    hopf = write_json(tmp_path, "hopf.json", {"strands": 2, "word": [1, 1]})
    unknot = write_json(tmp_path, "unknot.json", {"strands": 1, "word": []})
    code, out, _ = run_cli(
        capsys, "check-thm41", "--lift", unknot, "--quotient", hopf, "--p", "3"
    )
    assert code == 1
    assert out == "OBSTRUCTED\n"


def test_check_thm51_paths(capsys, tmp_path):
    b = write_json(tmp_path, "b.json", {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    bbar = write_json(tmp_path, "bbar.json", {"matrix": [[1]]})
    code, out, _ = run_cli(
        capsys, "check-thm51", "--b", b, "--bbar", bbar, "--p", "3", "--n", "5"
    )
    assert code == 0
    assert out.startswith("CONSISTENT")

    b2 = write_json(tmp_path, "b2.json", {"matrix": [[2]]})
    bbar2 = write_json(tmp_path, "bbar2.json", {"matrix": [[3]]})
    code, out, _ = run_cli(
        capsys, "check-thm51", "--b", b2, "--bbar", bbar2, "--p", "5", "--n", "9"
    )
    assert code == 1
    assert out == "OBSTRUCTED\n"


def test_check_thm51_fast_flag(capsys, tmp_path):
    b = write_json(tmp_path, "b.json", {"matrix": [[-1, 0], [0, -1]]})
    bbar = write_json(tmp_path, "bbar.json", {"matrix": [[-1]]})
    code, out, _ = run_cli(
        capsys, "check-thm51", "--b", b, "--bbar", bbar, "--p", "2", "--n", "7", "--fast"
    )
    code2, out2, _ = run_cli(
        capsys, "check-thm51", "--b", b, "--bbar", bbar, "--p", "2", "--n", "7"
    )
    assert (code, out) == (code2, out2)


def test_check_thm51_large_pair_is_fast(capsys, tmp_path):
    # B = P^T (11 copies of [[2]]) P for a unimodular P, at N = 105;
    # enumerating (Z/105)^11 would never finish
    rng = random.Random(353)
    m = 11
    basis = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(2 * m):
        i, j = rng.sample(range(m), 2)
        basis[i] = [x + rng.choice((1, -1)) * y for x, y in zip(basis[i], basis[j])]
    rows = [
        [2 * sum(basis[k][i] * basis[k][j] for k in range(m)) for j in range(m)]
        for i in range(m)
    ]
    b = write_json(tmp_path, "b.json", {"matrix": rows})
    bbar = write_json(tmp_path, "bbar.json", {"matrix": [[2]]})
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "check-thm51", "--b", b, "--bbar", bbar, "--p", "11", "--n", "105"
    )
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out.startswith("CONSISTENT")


# ---------------------------------------------------------------------------
# reproduction pipeline


def test_repro_remark13_passes(capsys):
    code, out, _ = run_cli(capsys, "repro-remark13")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Phi_15 = 1 - A + A^3 - A^4 + A^5 - A^7 + A^8"
    assert lines[9] == "A^8 = -1 + A - A^3 + A^4 - A^5 + A^7"
    for p in (11, 19, 29, 31):
        assert (
            f"p = {p}: OBSTRUCTED (L(2,1) is not the {p}-fold cyclic "
            f"branched cover of S^3 along any knot)" in lines
        )
    assert lines[-1] == "summary: PASS (all four primes obstructed)"


def test_repro_remark13_deterministic(capsys):
    _, first, _ = run_cli(capsys, "repro-remark13")
    _, second, _ = run_cli(capsys, "repro-remark13")
    assert first == second


# ---------------------------------------------------------------------------
# error handling


def test_bad_poly_exits_2(capsys):
    code, _, err = run_cli(capsys, "reduce", "--order", "15", "--poly", "A^^2")
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "jinv", "--braid", str(tmp_path / "nope.json"))
    assert code == 2
    assert err.startswith("error:")


def test_even_level_exits_2(capsys, tmp_path):
    path = write_json(tmp_path, "one.json", {"matrix": [[1]]})
    code, _, err = run_cli(capsys, "moo", "--n", "4", "--matrix", path)
    assert code == 2
    assert err.startswith("error:")


def test_bad_prime_pair_exits_2(capsys):
    code, _, err = run_cli(capsys, "check-cor12", "--v", "1", "--r", "5", "--p", "7")
    assert code == 2
    assert err.startswith("error:")


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 2


def test_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "jinv", "--braid", str(path))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "command, payload",
    [
        ("moo", {"matrix": [[1.5]]}),
        ("moo", {"matrix": [["3"]]}),
        ("jinv", {"strands": 2.9, "word": [1, 1, 1]}),
        ("jinv", {"strands": 2, "word": [1, True, 1]}),
        ("jinv", {"strands": 2, "word": [1, 1], "framings": [0.7, 0]}),
    ],
    ids=["float-entry", "string-entry", "float-strands", "bool-letter", "float-framing"],
)
def test_non_integer_json_exits_2(capsys, tmp_path, command, payload):
    # a JSON number must be an integer; 1.5, "3", 2.9, true and 0.7 were
    # once truncated or taken as 1
    path = write_json(tmp_path, "bad.json", payload)
    flag = "--matrix" if command == "moo" else "--braid"
    extra = ("--n", "5") if command == "moo" else ()
    code, out, err = run_cli(capsys, command, flag, path, *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "integer" in err


@pytest.mark.parametrize(
    "command, payload",
    [
        ("jinv", {"strands": 2, "word": 5}),
        ("jinv", {"strands": 2, "word": [1], "framings": 3}),
        ("lkmatrix", {"strands": 2, "word": [1], "framings": 3}),
        ("moo", {"matrix": [1]}),
        ("moo", {"matrix": 7}),
    ],
    ids=["int-word", "int-framings", "lkmatrix-int-framings", "int-row", "int-matrix"],
)
def test_non_list_json_exits_2(capsys, tmp_path, command, payload):
    # a number where a JSON array belongs is refused, not a TypeError traceback
    path = write_json(tmp_path, "bad.json", payload)
    flag = "--matrix" if command == "moo" else "--braid"
    extra = ("--n", "5") if command == "moo" else ()
    code, out, err = run_cli(capsys, command, flag, path, *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "must be a list" in err


def test_check_cor12_large_prime_is_fast(capsys):
    # 10^18 + 9 is prime and = -1 mod 5; primality is decided at once
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "check-cor12", "--v", "1", "--r", "5", "--p", str(10**18 + 9)
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out == "CONSISTENT epsilon=1 s=0 alpha=0\n"


def test_check_cor12_prime_beyond_exact_range_exits_2(capsys):
    # primality is exact below 3.3e24 only; larger p is refused
    p = 10**25 + 9
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "check-cor12", "--v", "1", "--r", "5", "--p", str(p))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("phi", "510510"),
        ("reduce", "--order", str(10**12), "--poly", "A"),
        ("qint", "3", "--order", "510510"),
        ("qint", str(10**12), "--order", str(10**9)),
        ("gr", "--r", "170171"),
        ("check-cor12", "--v", "1", "--r", "170171", "--p", "340343"),
        ("moo", "--n", "510511", "--matrix", "one.json"),
    ],
    ids=["phi-510510", "reduce-10^12", "qint-510510", "qint-10^12-10^9", "gr-170171",
         "cor12-170171", "moo-510511"],
)
def test_ring_over_budget_exits_2_fast(capsys, tmp_path, argv):
    # phi(k) <= 2^15 is the ring-size budget; Phi_510510 (degree 92160)
    # once took 35-75 s, and a larger order is refused without factoring
    argv = [write_json(tmp_path, a, {"matrix": [[1]]}) if a == "one.json" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "budget" in err


@pytest.mark.parametrize(
    "argv, want",
    [
        # 5 | n, so each exponent class mod 5 comes n/5 times: (n/5) Phi_5 = 0
        (("qint", str(10**12), "--order", "5"), "0"),
        # n = 7q + 1, and j^2 mod 7 takes 0 once and each of 1, 2, 4 twice
        (("gauss", "--a", "1", "--n", str(10**12), "--order", "7"),
         "142857142858 + 285714285714A + 285714285714A^2 + 285714285714A^4"),
    ],
    ids=["qint", "gauss"],
)
def test_huge_n_folds_by_the_period(capsys, argv, want):
    # j and j + order give the same term, so at most order terms are built
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, want + "\n")


def test_gr_301_is_fast(capsys):
    # eta_plus inverts A^3 - A^-3 in closed form, not by the Galois norm's
    # 503 products at order 903 (1.5-2 s)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "gr", "--r", "301")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.endswith("\nepsilon = -1\n")
    value = parse_ring_element(out.splitlines()[0].split(" = ", 1)[1], 903)
    assert value == -parse_ring_element("A^-36", 903)


def test_braid_missing_strands_exits_2(capsys, tmp_path):
    path = write_json(tmp_path, "bad.json", {"word": [1]})
    code, _, err = run_cli(capsys, "jinv", "--braid", str(path))
    assert code == 2
    assert err.startswith("error:")


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
