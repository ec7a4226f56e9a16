import contextlib
import json
import math
import random
import sys
import tracemalloc

import pytest

from pelwedge import cli, hodge
from pelwedge.cli import EXIT_INPUT, EXIT_USAGE, main
from pelwedge.cyclofield import all_cm_types, cyclo_field
from pelwedge.instances import rand_skew_hermitian
from pelwedge.reporting import PelInputError, ReportDocument, load_pel_input, params_hash


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_jsonl(out):
    lines = [json.loads(line) for line in out.strip().splitlines()]
    header = lines[0]["header"]
    summary = lines[-1]["summary"]
    records = [line["record"] for line in lines[1:-1]]
    return header, records, summary


def test_verify_data_small(capsys):
    code, out, err = run(capsys, "verify", "data", "--m", "4", "--n", "2")
    assert code == 0
    header, records, summary = parse_jsonl(out)
    assert header["schema_version"] == "1"
    assert header["suite"] == "data"
    assert summary["failed"] == 0
    assert all(r["status"] == "pass" for r in records)
    assert "suite data" in err


def test_verify_vdrei(capsys):
    code, out, _ = run(capsys, "verify", "vdrei", "--n", "4")
    assert code == 0
    _, records, _ = parse_jsonl(out)
    assert len(records) == 10  # sum of k over n=1..4


def test_verify_vzehn(capsys):
    code, out, _ = run(capsys, "verify", "vzehn", "--n", "4")
    assert code == 0
    _, records, summary = parse_jsonl(out)
    assert summary["failed"] == 0


def test_verify_prinz_random_small(capsys):
    code, out, _ = run(
        capsys, "verify", "prinz", "--trials", "5", "--seed", "7", "--n", "2"
    )
    assert code == 0
    _, records, _ = parse_jsonl(out)
    assert len(records) == 5
    assert all(r["output_valuation"] == 0 for r in records)


def test_verify_embedding_small(capsys):
    code, out, _ = run(
        capsys, "verify", "embedding", "--n", "3", "--seed", "1"
    )
    assert code == 0
    _, records, _ = parse_jsonl(out)
    assert [(r["n"], r["k"]) for r in records] == [(2, 1), (3, 1), (3, 2)]
    assert all(r["status"] == "pass" and "witness" not in r for r in records)


def test_verify_embedding_n8_passes_all_28(capsys):
    code, out, _ = run(capsys, "verify", "embedding", "--n", "8")
    assert code == 0
    _, records, _ = parse_jsonl(out)
    assert len(records) == 28
    assert {r["status"] for r in records} == {"pass"}


def test_verify_all_trials_still_sets_the_prinz_trials(capsys):
    code, out, _ = run(capsys, "verify", "all", "--trials", "2")
    assert code == 0
    _, records, _ = parse_jsonl(out)
    assert sum(r["check"].startswith("prinz trial=") for r in records) == 2
    assert sum(r["check"].startswith("embedding ") for r in records) == 6


def test_verify_reproducible(capsys):
    args = ("verify", "prinz", "--trials", "3", "--seed", "42", "--n", "2")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_prinz_input_vacuous(capsys, tmp_path, fixtures_dir):
    # scale gram1 by p so the hypotheses fail: the run is vacuous (exit 2)
    raw = json.loads((fixtures_dir / "allpass.pel").read_text())
    raw["gram1"] = [
        [[5 * c for c in entry] for entry in row] for row in raw["gram1"]
    ]
    path = tmp_path / "scaled.pel"
    path.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "verify", "prinz", "--input", str(path))
    assert code == 2
    _, records, summary = parse_jsonl(out)
    assert summary["vacuous"] > 0
    assert all(r["status"] in ("vacuous", "pass") for r in records)


def test_verify_prinz_input_pass(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "verify", "prinz", "--input", str(fixtures_dir / "allpass.pel")
    )
    assert code == 0
    header, records, _ = parse_jsonl(out)
    assert header["input_hash"] is not None
    assert all(r["status"] == "pass" for r in records)


def test_spadesuit_fixtures(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "spadesuit", "--input", str(fixtures_dir / "allpass.pel")
    )
    assert code == 0
    _, records, _ = parse_jsonl(out)
    verdicts = {r["check"]: r["status"] for r in records}
    assert verdicts["perfect_at_p"] == "pass"
    assert verdicts["coprime_level"] == "pass"
    assert verdicts["orbit_aligned"] == "pass"
    assert verdicts["distinct_primes"] == "pass"

    code, out, _ = run(
        capsys, "spadesuit", "--input", str(fixtures_dir / "coprime_fail.pel")
    )
    assert code == 1
    _, records, _ = parse_jsonl(out)
    verdicts = {r["check"]: r["status"] for r in records}
    assert verdicts["coprime_level"] == "fail"

    code, out, _ = run(
        capsys, "spadesuit", "--input", str(fixtures_dir / "orbit_fail.pel")
    )
    assert code == 1
    _, records, _ = parse_jsonl(out)
    verdicts = {r["check"]: r["status"] for r in records}
    assert verdicts["orbit_aligned"] == "fail"


def test_table_traces(capsys):
    code, out, _ = run(capsys, "table", "traces", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,coeff_phi0,coeff_phin"
    assert lines[1] == "0,1,0"
    assert lines[-1] == "4,0,1"


def test_table_weights(capsys):
    code, out, _ = run(
        capsys, "table", "weights", "--n", "3", "--k", "2", "--case", "only0"
    )
    assert code == 0
    assert out.splitlines()[0] == "p,q,multiplicity"
    assert "-2" in out and "-1" in out


def test_table_weights_records_format(capsys):
    code, out, _ = run(
        capsys, "table", "weights", "--n", "3", "--k", "2",
        "--case", "only0", "--format", "records",
    )
    assert code == 0
    header, records, _ = parse_jsonl(out)
    assert header["suite"] == "table"
    assert {(r["p"], r["q"]): r["multiplicity"] for r in records} == {
        (-2, 0): 1,
        (-1, -1): 2,
    }


def test_table_signatures(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "table", "signatures", "--input", str(fixtures_dir / "allpass.pel")
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "embedding,p,q"
    rows = {int(l.split(",")[0]): tuple(map(int, l.split(",")[1:])) for l in lines[1:]}
    assert rows[1] == (0, 2)
    assert rows[3] == (2, 0)


def _signature_pel(tmp_path, fixtures_dir, gram1, m=4):
    raw = json.loads((fixtures_dir / "allpass.pel").read_text())
    field = cyclo_field(m)
    raw.update(m=m, n=len(gram1), phi0=sorted(all_cm_types(field)[0].members),
               phin=sorted(all_cm_types(field)[1].members))
    raw["gram0"] = [[[str(c) for c in (field.zeta - field.zeta.conj()).coords]]]
    raw["gram1"] = [[[str(c) for c in x.coords] for x in row] for row in gram1]
    path = tmp_path / "form.pel"
    path.write_text(json.dumps(raw))
    return str(path)


def test_table_signatures_of_a_degenerate_form(capsys, tmp_path, fixtures_dir):
    F = cyclo_field(4)
    i = F.zeta
    path = _signature_pel(tmp_path, fixtures_dir, [[i, i], [i, i]])
    for fmt in ("csv", "records"):
        code, out, err = run(capsys, "table", "signatures", "--input", path, "--format", fmt)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "input error: the gram matrix is degenerate over Q(zeta_4): rank 1 < 2\n"


def test_table_signatures_from_a_low_starting_precision(
    capsys, monkeypatch, tmp_path, fixtures_dir
):
    # 8 bits certify some signs of this form and the rest escalate: the rows stay
    F = cyclo_field(16)
    gram = rand_skew_hermitian(F, 12, random.Random(8))
    path = _signature_pel(tmp_path, fixtures_dir, gram, m=16)
    argv = ("table", "signatures", "--input", path, "--format", "records")
    code, default, _ = run(capsys, *argv)
    assert code == 0 and len(parse_jsonl(default)[1]) == 8
    bits = []
    sine_bounds = hodge._sine_bounds
    monkeypatch.setattr(
        hodge, "_sine_bounds", lambda m, prec: bits.append(prec) or sine_bounds(m, prec)
    )
    monkeypatch.setattr(hodge, "DEFAULT_PREC_BITS", 8)
    assert run(capsys, *argv) == (0, default, "")
    assert min(bits) == 8 and max(bits) > 8


def test_records_are_printed_as_they_are_made(capsys):
    def rows():
        yield {"a": 1, "status": "pass"}
        assert capsys.readouterr().out.count("\n") == 2  # the header and one record
        yield {"a": 2, "status": "fail"}

    sys.stdout.writelines(ReportDocument(suite="table").lines(rows()))
    assert capsys.readouterr().out == (
        '{"record":{"a":2,"status":"fail"}}\n'
        '{"summary":{"checks":2,"exit_code":1,"failed":1,"vacuous":0}}\n'
    )


@pytest.mark.parametrize("fmt", ["csv", "records"])
def test_table_traces_prints_each_row_before_making_the_next(capsys, monkeypatch, fmt):
    # each row makes two binomials: collect what stdout holds at every call
    printed = []
    binom = cli.binom
    monkeypatch.setattr(
        cli, "binom", lambda n, k: printed.append(capsys.readouterr().out) or binom(n, k)
    )
    assert main(["table", "traces", "--n", "3", "--format", fmt]) == 0
    rest = capsys.readouterr().out
    # a header and the rows k = 0..3, and in records a summary
    assert len("".join(printed + [rest]).splitlines()) == {"csv": 5, "records": 6}[fmt]
    # the first row is made before anything is printed, and each later row
    # after the one before it (the first with the header) is out
    assert [chunk.count("\n") for chunk in printed] == [0, 0, 2, 0, 1, 0, 1, 0]


@pytest.mark.parametrize("argv, made", [
    # one verify_vdrei call makes every k of a block: with --k, one record
    # per block (without it, see the test below)
    (["verify", "vdrei", "--n", "3", "--k", "1"], "verify_vdrei"),
    (["verify", "prinz", "--trials", "3", "--m", "5", "--n", "2"], "rand_perfect_pair"),
    # Q(i) has one pair of CM types up to conjugation: one check per record
    (["verify", "data", "--m", "4", "--n", "2"], "verify_type11"),
])
def test_verify_prints_each_record_before_making_the_next(capsys, monkeypatch, argv, made):
    # what stdout holds each time a record's check starts
    printed = []
    check = getattr(cli, made)
    monkeypatch.setattr(
        cli, made, lambda *args: printed.append(capsys.readouterr().out) or check(*args)
    )
    assert main(argv) == 0
    header, records, _ = parse_jsonl("".join(printed) + capsys.readouterr().out)
    # nothing before the first record is made, then the header with the
    # first record, then one record per check
    assert [chunk.count("\n") for chunk in printed[:3]] == [0, 2, 1]
    assert len(printed) == len(records) and header["suite"] == argv[1]


@pytest.mark.parametrize("suite, made, sizes", [
    # blocks n = 1..4, with k = 1..n
    ("vdrei", "verify_vdrei", [1, 2, 3, 4]),
    # blocks b = 1..3, with k = 1..b+1
    ("vzehn", "verify_vzehn", [2, 3, 4]),
])
def test_block_suites_print_each_block_before_making_the_next(capsys, monkeypatch, suite, made, sizes):
    # what stdout holds each time a block's walk starts
    printed = []
    check = getattr(cli, made)
    monkeypatch.setattr(
        cli, made, lambda *args: printed.append(capsys.readouterr().out) or check(*args)
    )
    assert main(["verify", suite, "--n", "4"]) == 0
    header, records, _ = parse_jsonl("".join(printed) + capsys.readouterr().out)
    # nothing before the first block is checked, then the header with the
    # first block's records, then each block's records before the next
    # block's walk
    assert [chunk.count("\n") for chunk in printed] == [0, 1 + sizes[0], *sizes[1:-1]]
    assert len(records) == sum(sizes) and header["suite"] == suite


@pytest.mark.parametrize("k", [None, 1])
@pytest.mark.parametrize("fault", ["degenerate", "ramified"])
def test_an_input_error_in_a_verify_record_prints_nothing(capsys, tmp_path, fixtures_dir, fault, k):
    # the first record raises, before the header is written
    if fault == "degenerate":
        # Psi1 = [[i, i], [i, i]] has rank 1
        path = fixtures_dir / "degenerate.pel"
        message = "trace gram is degenerate over Q"
    else:
        raw = json.loads((fixtures_dir / "allpass.pel").read_text())
        path = tmp_path / "ramified.pel"
        path.write_text(json.dumps(raw | {"p": 2}))
        message = "perfectness test requires p coprime to m, got p=2, m=4"
    argv = ["verify", "prinz", "--input", str(path)] + ([] if k is None else ["--k", str(k)])
    assert run(capsys, *argv) == (EXIT_INPUT, "", f"input error: {message}\n")


class _Discard:
    def write(self, text):
        return len(text)

    def writelines(self, lines):
        for _ in lines:
            pass

    def flush(self):
        pass


def test_verify_memory_does_not_grow_with_the_record_count():
    # 11,475 passing records; written out, they are about 1.0 MB of JSONL
    argv = ["verify", "data", "--m", "4", "--n", "150"]
    with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(_Discard()):
        main(argv[:-1] + ["2"])  # build the field and the parser's caches first
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("fmt", ["csv", "records"])
def test_a_first_row_that_raises_prints_nothing(capsys, fmt):
    def rows():
        raise ArithmeticError("no row")
        yield

    with pytest.raises(ArithmeticError):
        if fmt == "csv":
            cli._emit_table(rows())
        else:
            sys.stdout.writelines(ReportDocument(suite="table").lines(rows()))
    assert capsys.readouterr().out == ""


def test_report_lines_are_to_jsonl_line_by_line():
    records = [
        {"check": "a", "status": "pass"},
        {"check": "b", "status": "vacuous"},
        {"check": "c", "status": "fail"},
        {"row": 0},
    ]
    doc = ReportDocument(suite="s", seed=1, params={"n": 2})
    lines = list(doc.lines(iter(records)))
    objs = [{"header": doc.header()}, *({"record": r} for r in records), {"summary": doc.summary()}]
    assert lines == [doc.to_jsonl(obj) for obj in objs]
    assert [json.loads(line) for line in lines] == objs
    assert lines[-1] == '{"summary":{"checks":4,"exit_code":1,"failed":1,"vacuous":1}}\n'
    # a list streams the same lines as an iterator; only the unpassed are kept
    assert list(ReportDocument(suite="s", seed=1, params={"n": 2}).lines(records)) == lines
    assert doc.unpassed == records[1:3]
    assert doc.human_summary().splitlines() == [
        "suite s: 4 checks",
        "  b: VACUOUS {'check': 'b', 'status': 'vacuous'}",
        "  c: FAIL {'check': 'c', 'status': 'fail'}",
        "  failed=1 vacuous=1 exit=1",
    ]
    empty = ReportDocument(suite="e")
    assert list(empty.lines([]))[1:] == [
        '{"summary":{"checks":0,"exit_code":0,"failed":0,"vacuous":0}}\n'
    ]


def test_table_embedding_matrix(capsys):
    code, out, _ = run(
        capsys, "table", "embedding-matrix", "--n", "3", "--k", "2",
        "--x", "0.3,0.4",
    )
    assert code == 0
    assert out == "row,c0\n0,-0.4\n1,0.3\n"
    code, out, _ = run(
        capsys, "table", "embedding-matrix", "--n", "3", "--k", "2",
        "--x", "0.3,0.4j", "--format", "records",
    )
    assert code == 0
    assert out.splitlines()[1:3] == [
        '{"record":{"c0":"(-0-0.4j)","row":0}}',
        '{"record":{"c0":"0.3","row":1}}',
    ]


def test_csv_rows_are_printed_as_they_are_made(capsys):
    def rows():
        yield {"a": 1, "b": "x"}
        assert capsys.readouterr().out == "a,b\n1,x\n"
        yield {"a": 2, "b": "y"}

    cli._emit_table(rows())
    assert capsys.readouterr().out == "2,y\n"
    cli._emit_table(iter(()))
    assert capsys.readouterr().out == ""


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["table", "traces"])  # missing --n
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    ("kind", "argv", "missing"),
    [
        ("traces", [], "n"),
        ("weights", ["--n", "3", "--case", "only0"], "k"),
        ("weights", ["--n", "3", "--k", "2"], "case"),
        ("signatures", [], "input"),
        ("embedding-matrix", ["--n", "3", "--k", "1"], "x"),
    ],
)
def test_table_names_the_missing_option(capsys, kind, argv, missing):
    with pytest.raises(SystemExit) as exc:
        main(["table", kind, *argv])
    assert exc.value.code == EXIT_USAGE
    assert f"error: table {kind} requires --{missing}" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["1", "0", "-1"])
def test_prime_below_two_is_a_usage_error(capsys, p):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "prinz", "--trials", "2", "--p", p])
    assert exc.value.code == EXIT_USAGE
    assert "--p must be at least 2" in capsys.readouterr().err


def test_no_prime_coprime_to_m_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "prinz", "--m", "4", "--p", "2"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no --p value is coprime to m=4" in captured.err


@pytest.mark.parametrize("p", [1, -1])
@pytest.mark.parametrize("command", [["verify", "prinz"], ["spadesuit"]])
def test_pel_prime_below_two_is_an_input_error(capsys, tmp_path, fixtures_dir, command, p):
    doc = json.loads((fixtures_dir / "allpass.pel").read_text())
    path = tmp_path / "p.pel"
    path.write_text(json.dumps(doc | {"p": p}))
    code, out, err = run(capsys, *command, "--input", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert "p must be >= 2" in err


def test_input_errors(capsys, tmp_path):
    missing = tmp_path / "nope.pel"
    with pytest.raises(FileNotFoundError):
        load_pel_input(str(missing))

    bad = tmp_path / "bad.pel"
    bad.write_text("{not json")
    with pytest.raises(PelInputError) as exc:
        load_pel_input(str(bad))
    assert ":1:" in str(exc.value)  # line:col in the message
    code, _, err = run(capsys, "spadesuit", "--input", str(bad))
    assert code == EXIT_INPUT
    assert "input error" in err

    incomplete = tmp_path / "incomplete.pel"
    incomplete.write_text(json.dumps({"m": 4}))
    code, _, err = run(capsys, "spadesuit", "--input", str(incomplete))
    assert code == EXIT_INPUT

    ramified = tmp_path / "ramified.pel"
    ramified.write_text(
        json.dumps(
            {
                "m": 4,
                "n": 1,
                "phi0": [3],
                "phin": [1],
                "gram0": [[[0, 1]]],
                "gram1": [[[0, 1]]],
                "p": 2,
                "l": 3,
            }
        )
    )
    code, _, err = run(capsys, "spadesuit", "--input", str(ramified))
    assert code == EXIT_INPUT


def test_pel_grams_are_read_over_one_common_denominator(tmp_path, fixtures_dir):
    # each pair (a, b), (b, a) scaled by its own 1/q: still skew-Hermitian,
    # with coordinates over the denominators 1, 2, 3, 5 and 7
    field = cyclo_field(12)
    rng = random.Random(3100)
    gram = [list(row) for row in rand_skew_hermitian(field, 3, rng)]
    for a in range(3):
        for b in range(a, 3):
            q = rng.choice((1, 2, 3, 5, 7))
            gram[a][b] = gram[a][b] / q
            if b != a:
                gram[b][a] = gram[b][a] / q
    doc = json.loads((fixtures_dir / "allpass.pel").read_text()) | {
        "m": 12, "n": 3, "phi0": [1, 7], "phin": [1, 5],
        "gram0": [[[0, 0, 0, 1]]],  # zeta^3 = i
        "gram1": [[[c.numerator if c.denominator == 1 else str(c) for c in x.coords]
                   for x in row] for row in gram],
    }
    path = tmp_path / "rational.pel"
    path.write_text(json.dumps(doc))
    pel = load_pel_input(str(path))
    assert pel.gram1.gram == gram
    assert pel.gram1.gram.den == math.lcm(*(x.den for row in gram for x in row)) > 1


def test_params_hash_stable():
    assert params_hash({"a": 1, "b": 2}) == params_hash({"b": 2, "a": 1})
    assert params_hash({"a": 1}) != params_hash({"a": 2})
