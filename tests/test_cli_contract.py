"""The CLI contract: each command declares only the options it reads, every
option is checked before any work starts, and bad argv (64) is told apart
from a bad or unreadable `.pel` file (65)."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import runpy
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pelwedge import cli, cyclofield, instances, reporting
from pelwedge.cli import (
    ENTRIES,
    EXIT_INPUT,
    EXIT_IOERR,
    EXIT_SOFTWARE,
    EXIT_USAGE,
    TABLE_KINDS,
    VERIFY_SUITES,
    main,
)
from pelwedge.cyclofield import all_cm_types, cyclo_field

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
ALLPASS = str(FIXTURES / "allpass.pel")


def run(argv, capsys):
    """Exit code, stdout and stderr of one in-process run; a usage error may
    leave `main` as `SystemExit(64)`."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pel(tmp_path, **changes):
    doc = json.loads((FIXTURES / "allpass.pel").read_text()) | changes
    path = tmp_path / "changed.pel"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        "verify data --n 0",
        "verify vdrei --n 0",
        "verify prinz --trials -1",
        "verify embedding --n 2 --trials 0",
        "verify embedding --n 1",
        "verify vdrei --n 3 --k 9",
        "verify vzehn --n 1",
        "verify data --m 6 --n 1",
        "verify prinz --m 6 --trials 1",
        f"verify prinz --input {ALLPASS} --k 9",
        "verify prinz --trials 2 --k 7 --n 2",
        "verify prinz --trials 5 --k 2",
        f"verify prinz --input {ALLPASS} --trials 5",
        f"verify data --input {ALLPASS}",
        "verify prinz --p 9 --trials 1",
        "verify prinz --p 2 --trials 1",
        "verify data --m 1201",
        "table weights --n 3 --k 9 --case only0",
        "table embedding-matrix --n 3 --k 2 --x abc",
        "table embedding-matrix --n 3 --k 2 --x 0.3",
        "table embedding-matrix --n 1 --k 1 --x 0.3",
        "table embedding-matrix --n 3 --k 1 --x nan,inf",
        "table traces --n -3",
        "table traces --n 3 --k 1",
        f"table signatures --input {ALLPASS} --precision 8",
        "verify vdrei --n 1 --precision 128",
        f"table signatures --input {ALLPASS} --p 3",
        "table traces --n 2 --seed 4",
        f"spadesuit --input {ALLPASS} --l 7",
        "verify prinz --tri 5",
    ],
)
def test_bad_argv_is_a_usage_error(capsys, argv):
    code, out, err = run(argv.split(), capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ")


def test_the_precision_environment_variable_is_not_read(capsys, monkeypatch):
    # every sign is certified, so no starting precision is settable
    monkeypatch.setenv("PELWEDGE_PRECISION", "abc")
    code, out, _ = run(["verify", "vdrei", "--n", "1"], capsys)
    assert code == 0
    assert json.loads(out.splitlines()[0])["header"]["precision_bits"] == 128


def test_composite_p_is_refused_by_name(capsys):
    code, _, err = run(["verify", "prinz", "--p", "9", "--trials", "1"], capsys)
    assert code == EXIT_USAGE
    assert "--p must be a prime" in err


@pytest.mark.parametrize(
    "command",
    [["verify", "prinz"], ["table", "signatures"], ["spadesuit"]],
)
def test_unreadable_input_is_an_input_error(capsys, tmp_path, command):
    for path in (tmp_path / "nonexistent.pel", tmp_path):
        code, out, err = run([*command, "--input", str(path)], capsys)
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith(f"input error: {path}: ")


@pytest.mark.parametrize(
    "command",
    [["verify", "prinz"], ["table", "signatures"], ["spadesuit"]],
)
def test_composite_pel_prime_is_an_input_error(capsys, tmp_path, command):
    code, out, err = run([*command, "--input", write_pel(tmp_path, p=9)], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert "p must be a prime" in err


@pytest.mark.parametrize(
    "command",
    [["verify", "prinz"], ["table", "signatures"], ["spadesuit"]],
)
def test_pel_prime_past_2_64_is_an_input_error(capsys, tmp_path, command):
    code, out, err = run([*command, "--input", write_pel(tmp_path, p=2**64 + 13)], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert "p must be below 2^64" in err


@pytest.mark.parametrize("p", [2**64, 2**64 + 13, 2**89 - 1])
def test_p_past_2_64_is_a_usage_error(capsys, monkeypatch, p):
    monkeypatch.setattr(cli, "cmd_verify", _no_work)
    code, out, err = run(["verify", "prinz", "--trials", "1", "--p", str(p)], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert f"--p must be below 2^64, got {p}" in err


def test_verify_embedding_reads_no_trials(capsys):
    code, out, err = run(["verify", "embedding", "--n", "3", "--trials", "5"], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert "verify embedding does not read --trials" in err


def test_spadesuit_requires_input(capsys):
    code, out, err = run(["spadesuit"], capsys)
    assert (code, out, err) == (EXIT_USAGE, "", "error: spadesuit requires --input\n")


@pytest.mark.parametrize(
    "command",
    [["verify", "prinz"], ["table", "signatures"], ["spadesuit"]],
)
def test_a_deeply_nested_pel_is_an_input_error(capsys, tmp_path, command):
    # json.loads recurses once per level and gives up past the stack limit
    path = tmp_path / "deep.pel"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run([*command, "--input", str(path)], capsys)
    assert (code, out, err) == (EXIT_INPUT, "", f"input error: {path}: nested too deeply\n")


@pytest.mark.parametrize(
    "argv",
    [["verify", "data", "--m", "4", "--n", "100"], ["table", "traces", "--n", "2000"]],
)
def test_a_stdout_closed_by_its_reader_exits_74_without_a_traceback(argv):
    # both write far more than a pipe holds, so a write meets the closed end
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "pelwedge", *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_IOERR
    assert b"Traceback" not in err and err == b""


def test_a_sampler_that_rejects_every_draw_exits_70_without_a_traceback(capsys, monkeypatch):
    # p times a skew-Hermitian gram: p divides its trace form, so every draw
    # is rejected as not p-perfect
    draw = instances.rand_skew_hermitian
    monkeypatch.setattr(
        instances, "rand_skew_hermitian",
        lambda field, n, rng: cyclofield.CycloMatrix(field, 3 * draw(field, n, rng).nums),
    )
    code = main(["verify", "prinz", "--trials", "2", "--seed", "1", "--m", "5", "--p", "3", "--n", "3"])
    out, err = capsys.readouterr()
    assert code == EXIT_SOFTWARE == 70
    assert out == ""
    assert re.fullmatch(
        r"internal error: no p-perfect gram of rank 1 at m=5, n=[123], p=3 in 200 draws\n", err
    ), err
    assert "Traceback" not in err


def test_undecodable_pel_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.pel"
    path.write_bytes(b'{"m": "\xff"}')
    code, out, err = run(["spadesuit", "--input", str(path)], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith(f"input error: {path}: ")


@pytest.mark.parametrize(
    "command",
    [["verify", "prinz"], ["verify", "prinz", "--k", "1"], ["table", "signatures"], ["spadesuit"]],
)
def test_an_exponent_coefficient_is_refused_at_once(capsys, command):
    # "1e100000" read as a Fraction is a 100001-digit integer
    start = time.perf_counter()
    code, out, err = run([*command, "--input", str(FIXTURES / "exponent.pel")], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_INPUT, "")
    assert "gram0[0][0][1]: expected integer or 'a/b' string, got '1e100000'" in err


@pytest.mark.parametrize(
    "coefficient", ["1.5", "1e3", " 1/2", "1/2 ", "1/-2", "0x10", "١", "", True, False, 1.0, None]
)
def test_coefficients_are_integers_or_a_b_strings(capsys, tmp_path, coefficient):
    path = write_pel(tmp_path, gram0=[[[0, coefficient]]])
    code, out, err = run(["verify", "prinz", "--input", path], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert f"gram0[0][0][1]: expected integer or 'a/b' string, got {coefficient!r}" in err


@pytest.mark.parametrize("coefficient, value", [(3, 3), ("3", 3), ("+3", 3), ("-4/6", "-2/3")])
def test_integer_and_a_b_coefficients_are_read(tmp_path, coefficient, value):
    pel = reporting.load_pel_input(write_pel(tmp_path, gram0=[[[0, coefficient]]]))
    field = cyclo_field(4)
    assert pel.gram0.gram == ((field.zeta * Fraction(value),),)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("m", True, "key 'm' must be an integer"),
        ("n", True, "key 'n' must be an integer"),
        ("p", True, "key 'p' must be an integer"),
        ("l", False, "key 'l' must be an integer"),
        ("phin", [True], "phin must be a list of residues"),
    ],
)
def test_json_booleans_are_not_integers(capsys, tmp_path, key, value, message):
    code, out, err = run(["verify", "prinz", "--input", write_pel(tmp_path, **{key: value})], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert message in err


def test_equal_cm_types_are_an_input_error_for_spadesuit(capsys, tmp_path):
    doc = json.loads((FIXTURES / "allpass.pel").read_text())
    path = write_pel(tmp_path, phin=doc["phi0"])
    code, out, err = run(["spadesuit", "--input", path], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert "phi0 and phin must differ" in err


def _no_factoring(m):
    raise AssertionError(f"phi({m}) computed")


def _no_field(m):
    raise AssertionError(f"Q(zeta_{m}) built")


@pytest.mark.parametrize("m, degree", [(1201, 1200), (1155 * 13, 5760), (569, 568)])
def test_data_suite_refuses_large_fields_before_building_them(capsys, monkeypatch, m, degree):
    monkeypatch.setattr(cli, "cyclo_field", _no_field)
    code, out, err = run(["verify", "data", "--m", str(m), "--n", "1"], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: verify data takes phi(m) <= 560, got phi({m}) = {degree}\n"


@pytest.mark.parametrize("m", [105, 17, 1155, 2100])  # phi 48, 16, 480 and 480
def test_data_suite_accepts_phi_up_to_560(capsys, monkeypatch, m):
    built = []
    monkeypatch.setattr(cli, "cyclo_field", lambda m: built.append(m) or cyclo_field(m))
    code, out, _ = run(["verify", "data", "--m", str(m), "--n", "2"], capsys)
    assert (code, built) == (0, [m])
    assert json.loads(out.splitlines()[-1])["summary"]["checks"] == 5


def _no_work(args, opts):
    raise AssertionError(f"{args.suite} ran")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify vdrei --n 16", "verify vdrei takes C(n, n/2) <= 2000, got n=16"),
        ("verify vzehn --n 14 --k 2", "verify vzehn takes C(n, n/2) <= 2000, got n=14"),
        ("verify vdrei --n 100000000000", "got n=100000000000"),
        ("verify prinz --n 9 --m 9", "C(n, n/2) * phi(m) <= 560, got n=9 and phi(9) = 6"),
        ("verify prinz --n 8 --m 13 --trials 1", "got n=8 and phi(13) = 12"),
        ("verify prinz --n 10", "got n=10 and phi(5) = 4"),
    ],
)
def test_sizes_past_the_rank_bound_are_refused_before_any_work(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "cmd_verify", _no_work)
    code, out, err = run(argv.split(), capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert message in err.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        "verify vdrei --n 13",
        "verify vzehn --n 13",
        "verify vdrei --n 10",
        "verify prinz --n 8 --m 16",
        "verify prinz --n 8",
        "verify prinz --trials 1 --seed 5 --m 16 --n 4",
    ],
)
def test_sizes_within_the_rank_bound_are_accepted(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "cmd_verify", lambda args, opts: 0)
    assert run(argv.split(), capsys)[0] == 0


@pytest.mark.parametrize(
    "argv, n_max",
    [
        # CPython refuses to print an int past 4300 digits: these two once
        # printed part of their rows and exited 1 with a traceback
        ("table traces --n 14300", 2000),
        ("table traces --n 2001", 2000),
        ("table weights --n 20000 --k 10000 --case both", 10000),
        ("table weights --n 10001 --k 0 --case only0", 10000),
        ("verify data --n 201", 200),
        ("verify data --n 400 --m 4", 200),
    ],
)
def test_n_past_its_bound_is_refused_before_any_work(capsys, monkeypatch, argv, n_max):
    monkeypatch.setattr(cli, "cmd_verify", _no_work)
    monkeypatch.setattr(cli, "cmd_table", _no_work)
    n = argv.split()[3]
    assert run(argv.split(), capsys) == (
        EXIT_USAGE, "", f"error: --n must be at most {n_max}, got {n}\n"
    )


@pytest.mark.parametrize(
    "argv, n, degrees",
    [
        # at phi(547) = 546 n = 100 took 11.5 s, and n = 200 would take about 45 s
        ("verify data --m 547 --n 200", 200, 546),
        ("verify data --m 547 --n 35", 35, 546),
        ("verify data --m 1155 --n 37 --seed 1", 37, 480),
        ("verify data --m 35 --n 164", 164, 24),
    ],
)
def test_data_embeddings_past_the_bound_are_refused_before_any_work(
    capsys, monkeypatch, argv, n, degrees
):
    monkeypatch.setattr(cli, "cmd_verify", _no_work)
    monkeypatch.setattr(cli, "cyclo_field", _no_field)
    assert run(argv.split(), capsys) == (EXIT_USAGE, "", (
        "error: verify data takes n^2 * (sum of phi(m)) <= 640000, "
        f"got n={n} and a sum of phi(m) of {degrees}\n"
    ))


@pytest.mark.parametrize(
    "argv",
    [
        # every argv that ran in about 3 s or less before the bound
        "verify data",
        "verify data --n 200",
        "verify data --m 17 --n 200",
        "verify data --m 32 --n 200",
        "verify data --m 13 --n 6",
        "verify data --m 547 --n 34",
        "verify data --m 1155 --n 36",
        "verify data --m 35 --n 163",
    ],
)
def test_data_embeddings_within_the_bound_are_accepted(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "cmd_verify", lambda args, opts: 0)
    assert run(argv.split(), capsys) == (0, "", "")


@pytest.mark.parametrize(
    "argv, lines",
    [
        # a header and rows k = 0..n
        ("table traces --n 2000", 2002),
        # C(10000, 5000), 3009 digits, at the (0, -k) weight only
        ("table weights --n 10000 --k 5000 --case neither", 2),
        # a header, the records of n = 1..200, k = 0..n and a summary
        ("verify data --n 200 --m 4", 1 + 200 * 203 // 2 + 1),
    ],
)
def test_the_largest_accepted_n_runs(capsys, argv, lines):
    code, out, err = run(argv.split(), capsys)
    assert code == 0
    assert len(out.splitlines()) == lines


def diagonal_pel(tmp_path, m, n):
    """A `.pel` over Q(zeta_m) with Psi1 = (zeta - zeta^-1) * I_n."""
    field = cyclo_field(m)
    x = [str(c) for c in (field.zeta - field.zeta.conj()).coords]
    zero = ["0"] * field.degree
    phi0, phin = all_cm_types(field)[:2]
    return write_pel(
        tmp_path, m=m, n=n, phi0=sorted(phi0.members), phin=sorted(phin.members),
        gram0=[[x]], gram1=[[x if i == j else zero for j in range(n)] for i in range(n)],
    )


def test_pel_sizes_past_the_rank_bound_are_refused_before_any_work(capsys, monkeypatch, tmp_path):
    # C(11, 5) * phi(4) = 924 > 560, the bound of random verify prinz
    monkeypatch.setattr(cli, "cmd_verify", _no_work)
    path = diagonal_pel(tmp_path, 4, 11)
    code, out, err = run(["verify", "prinz", "--input", path, "--k", "1"], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == (
        f"input error: {path}: verify prinz --input takes C(n, n/2) * phi(m) <= 560, "
        "got n=11 and phi(4) = 2\n"
    )


@pytest.mark.parametrize("command", [["verify", "prinz"], ["table", "signatures"], ["spadesuit"]])
@pytest.mark.parametrize("m, message", [
    (1201, "m: need phi(m) <= 560, got phi(1201) = 1200"),
    (10**30, f"m: need phi(m) <= 560, got m={10**30} > 2 * 560^2"),
])
def test_pel_fields_past_the_degree_bound_are_refused_before_they_are_built(
    capsys, monkeypatch, tmp_path, command, m, message
):
    monkeypatch.setattr(reporting, "cyclo_field", _no_field)
    if m > 2 * 560**2:
        monkeypatch.setattr(cyclofield, "_totient", _no_factoring)
    path = write_pel(tmp_path, m=m)
    code, out, err = run([*command, "--input", path], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"input error: {path}: {message}\n"


@pytest.mark.parametrize("m, n", [(8, 7), (16, 5), (8, 8)])  # 140, 80 and 280 rows
def test_pel_sizes_within_the_rank_bound_are_accepted(capsys, monkeypatch, tmp_path, m, n):
    monkeypatch.setattr(cli, "cmd_verify", lambda args, opts: 0)
    assert run(["verify", "prinz", "--input", diagonal_pel(tmp_path, m, n)], capsys)[0] == 0


def diagonal_signature_pel(tmp_path, m, n):
    """`diagonal_pel` with phi0 = phin the CM type of the residues below
    m/2: `all_cm_types` would list all 2^(phi(m)/2) types."""
    field = cyclo_field(m)
    x = [str(c) for c in (field.zeta - field.zeta.conj()).coords]
    zero = ["0"] * field.degree
    phi = [u for u in field.units if 2 * u < m]
    return write_pel(
        tmp_path, m=m, n=n, phi0=phi, phin=phi,
        gram0=[[x]], gram1=[[x if i == j else zero for j in range(n)] for i in range(n)],
    )


@pytest.mark.parametrize("m, n", [(3, 65), (16, 33), (557, 4), (181, 7)])
def test_signature_sizes_past_the_embedding_bound_are_refused_before_any_work(
    capsys, monkeypatch, tmp_path, m, n
):
    # n^2 * phi(m) > 64^2 * 2: at about twice the bound a random gram took 6-8 s
    monkeypatch.setattr(cli, "cmd_table", _no_work)
    path = diagonal_signature_pel(tmp_path, m, n)
    degree = cyclofield._totient(m)
    for fmt in ("csv", "records"):
        code, out, err = run(["table", "signatures", "--input", path, "--format", fmt], capsys)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == (
            f"input error: {path}: table signatures takes n^2 * phi(m) <= 8192, "
            f"got n={n} and phi({m}) = {degree}\n"
        )


@pytest.mark.parametrize("m, n", [(3, 64), (16, 32), (1024, 4), (181, 6), (4, 1)])
def test_signature_sizes_within_the_embedding_bound_are_accepted(
    capsys, monkeypatch, tmp_path, m, n
):
    monkeypatch.setattr(cli, "cmd_table", lambda kind, opts: 0)
    path = diagonal_signature_pel(tmp_path, m, n)
    assert run(["table", "signatures", "--input", path], capsys) == (0, "", "")


def test_the_largest_accepted_signature_table_runs(capsys, tmp_path):
    # (zeta - zeta^-1) * I_64 at m = 3: at sigma_1, i * Psi is -sqrt(3) * I
    path = diagonal_signature_pel(tmp_path, 3, 64)
    code, out, err = run(["table", "signatures", "--input", path], capsys)
    assert (code, err) == (0, "")
    assert out == "embedding,p,q\n1,0,64\n2,64,0\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify embedding --n 14", "verify embedding takes C(n, n/2) <= 1716, got n=14"),
        ("verify embedding --n 14 --k 7", "got n=14"),
        ("table embedding-matrix --n 14 --k 7 --x 0",
         "table embedding-matrix takes C(n, n/2) <= 1716, got n=14"),
        ("table embedding-matrix --n 100000000000 --k 1 --x 0", "got n=100000000000"),
    ],
)
def test_embedding_sizes_past_the_rank_bound_are_refused_before_any_work(
    capsys, monkeypatch, argv, message
):
    monkeypatch.setattr(cli, "cmd_verify", _no_work)
    monkeypatch.setattr(cli, "cmd_table", _no_work)
    code, out, err = run(argv.split(), capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert message in err.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        "verify embedding --n 13 --k 6",
        "verify embedding --n 8",
        "table embedding-matrix --n 13 --k 6 --x 0,0,0,0,0,0,0,0,0,0,0,0",
    ],
)
def test_embedding_sizes_within_the_rank_bound_are_accepted(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "cmd_verify", lambda args, opts: 0)
    monkeypatch.setattr(cli, "cmd_table", lambda kind, opts: 0)
    assert run(argv.split(), capsys)[0] == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify data --m 1000000000000000000000001 --n 1",
         "verify data takes phi(m) <= 560, got m=1000000000000000000000001 > 2 * 560^2"),
        ("verify data --m 627201", "got m=627201 > 2 * 560^2"),
        ("verify prinz --m 1000000000000000000000001 --trials 1",
         "verify prinz takes phi(m) <= 560, got m=1000000000000000000000001"),
        ("verify prinz --m 627201 --n 1 --trials 1", "got m=627201 > 2 * 560^2"),
    ],
)
def test_huge_conductors_are_refused_without_factoring(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "_totient", _no_factoring)
    monkeypatch.setattr(cyclofield, "_totient", _no_factoring)
    monkeypatch.setattr(cli, "cmd_verify", _no_work)
    code, out, err = run(argv.split(), capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.count("error:") == 1
    assert message in err.splitlines()[-1]


def test_conductors_at_the_factoring_bound_are_still_factored(capsys, monkeypatch):
    # 2 * 560^2 = 627200 = 2^9 * 5^2 * 7^2 is the largest m whose phi(m) is computed
    monkeypatch.setattr(cli, "cmd_verify", _no_work)
    code, out, err = run(["verify", "data", "--m", "627200"], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert "verify data takes phi(m) <= 560, got phi(627200) = 215040" in err


def test_python_dash_m_runs_the_cli(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["pelwedge", "table", "traces", "--n", "2"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("pelwedge", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == "k,coeff_phi0,coeff_phin"


def _settable(parser) -> dict[str, set[str]]:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: {a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)}
        for command, p in sub.choices.items()
    }


def test_each_command_declares_only_what_its_entries_read():
    settable = _settable(cli.build_parser())
    assert sum(len(dests) for dests in settable.values()) == 16
    for command, dests in settable.items():
        read = set()
        for name, entry in ENTRIES.items():
            if name.split()[0] == command:
                read |= set(entry.defaults)
                assert set(entry.required) <= set(entry.defaults)
        positional = {"verify": {"suite"}, "table": {"kind"}}.get(command, set())
        assert dests == read | positional


# Property test over generated argv: small integers (the out-of-range ones
# included), and --trials <= 3 wherever the suite reads it.  Random prinz
# trials cost C(n, n/2) * phi(m) squared and more, so its --n stays <= 3 too.
SMALL = st.sampled_from([-1, 0, 1, 2, 3, 9])
AT_MOST_3 = st.sampled_from([-1, 0, 1, 2, 3])
VALUES = {
    "--n": SMALL,
    "--k": SMALL,
    "--m": SMALL,
    "--p": SMALL,
    "--seed": SMALL,
    "--l": SMALL,
    "--trials": AT_MOST_3,
    "--input": st.sampled_from([ALLPASS, str(FIXTURES / "orbit_fail.pel"),
                                str(FIXTURES / "missing.pel"), str(FIXTURES)]),
    "--format": st.sampled_from(["csv", "records", "xml"]),
    "--case": st.sampled_from(["both", "only0", "onlyn", "neither", "some"]),
    "--x": st.sampled_from(["0.3", "0.1,0.2j", "0.1,-0.2,0.3j", "abc", ""]),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["verify", "table", "spadesuit"]))
    argv = [command]
    if command == "verify":
        argv.append(draw(st.sampled_from(VERIFY_SUITES)))
    elif command == "table":
        argv.append(draw(st.sampled_from(TABLE_KINDS)))
    options = draw(st.lists(st.sampled_from(sorted(VALUES)), unique=True, max_size=5))
    random_prinz = argv == ["verify", "prinz"] and "--input" not in options
    if random_prinz or argv == ["verify", "all"]:
        options = [o for o in options if o != "--trials"] + ["--trials"]
    for option in options:
        strategy = AT_MOST_3 if random_prinz and option == "--n" else VALUES[option]
        argv += [option, str(draw(strategy))]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == EXIT_USAGE, argv
            code = exc.code
    assert code in (0, 1, 2, EXIT_USAGE, EXIT_INPUT), argv
    if code in (EXIT_USAGE, EXIT_INPUT):
        assert out.getvalue() == "", argv
        assert err.getvalue().splitlines()[-1].startswith(("error: ", "input error: ")), argv



def test_the_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    # main parses with one parser built at import; each call must give the
    # bytes a freshly built parser gives, a usage error in between included
    sequence = [
        ["verify", "prinz", "--trials", "2", "--seed", "5", "--m", "8", "--n", "2"],
        ["verify", "prinz", "--trials", "2", "--k", "1"],  # exit 64
        ["table", "weights", "--n", "3", "--k", "1", "--case", "only0", "--format", "records"],
        ["verify", "vdrei", "--n", "3"],
        ["table", "signatures", "--input", ALLPASS],
    ]
    shared = [run(argv, capsys) for argv in sequence]
    fresh = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        fresh.append(run(argv, capsys))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, EXIT_USAGE, 0, 0, 0]
    assert all(out for code, out, _ in shared if code == 0)


def test_default_primes_are_prime():
    # resolve checks only a given --p; the defaults must need no check
    assert all(cli.is_prime(p) for p in ENTRIES["verify prinz"].defaults["p"])


def test_no_cli_run_loads_sympy():
    # sympy is a test oracle only: the Serre-Tate suites compute over
    # serretate.Polynomial, and a `.pel` input checks its prime without it
    script = (
        "import contextlib, io, sys\n"
        "import pelwedge, pelwedge.cli\n"
        "for argv in (['verify', 'prinz', '--trials', '2', '--m', '8', '--n', '2'],\n"
        "             ['verify', 'vdrei', '--n', '4'], ['verify', 'vzehn', '--n', '4'],\n"
        "             ['verify', 'all', '--n', '3'],\n"
        f"             ['verify', 'prinz', '--input', {ALLPASS!r}],\n"
        f"             ['table', 'signatures', '--input', {ALLPASS!r}],\n"
        f"             ['spadesuit', '--input', {ALLPASS!r}]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert pelwedge.cli.main(argv) == 0, argv\n"
        "    assert 'sympy' not in sys.modules, argv\n"
    )
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", script], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})


def test_openssl_is_not_loaded_where_the_builtin_sha256_exists():
    # hashlib loads OpenSSL's libcrypto; the report hashes need CPython's
    # builtin SHA-256 (_sha256 up to 3.11, _sha2 from 3.12) where it exists
    script = (
        "import contextlib, importlib.util, io, sys\n"
        "import pelwedge.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert pelwedge.cli.main(['verify', 'prinz', '--input', {ALLPASS!r}]) == 0\n"
        "builtin = any(importlib.util.find_spec(name) for name in ('_sha2', '_sha256'))\n"
        "assert not builtin or '_hashlib' not in sys.modules\n"
    )
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", script], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})


def test_no_cli_run_loads_mpmath():
    # the signature signs are bounded by integer arithmetic, so not even a
    # signatures table loads mpmath (about 2.3 MB of resident memory)
    script = (
        "import contextlib, io, sys\n"
        "import pelwedge, pelwedge.cli\n"
        "for argv in (['verify', 'prinz', '--trials', '2', '--m', '8', '--n', '2'],\n"
        "             ['verify', 'embedding', '--n', '3'],\n"
        f"             ['verify', 'prinz', '--input', {ALLPASS!r}],\n"
        f"             ['table', 'signatures', '--input', {ALLPASS!r}]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert pelwedge.cli.main(argv) == 0, argv\n"
        "    assert 'mpmath' not in sys.modules, argv\n"
    )
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", script], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})
