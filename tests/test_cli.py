import json

import pytest

from pelwedge.cli import EXIT_INPUT, EXIT_USAGE, main
from pelwedge.reporting import PelInputError, load_pel_input, params_hash


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
        capsys, "verify", "embedding", "--n", "3", "--trials", "50", "--seed", "1"
    )
    assert code == 0
    _, records, _ = parse_jsonl(out)
    assert all(r["failures"] == 0 for r in records)
    assert all(r["max_norm_ratio"] <= 1 + 1e-12 for r in records)


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


def test_spadesuit_requires_input(capsys):
    code, _, err = run(capsys, "spadesuit")
    assert code == EXIT_USAGE
    assert "requires --input" in err


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


def test_table_embedding_matrix(capsys):
    code, out, _ = run(
        capsys, "table", "embedding-matrix", "--n", "3", "--k", "2",
        "--x", "0.3,0.4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + 2 rows


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


def test_precision_env(capsys, monkeypatch):
    monkeypatch.setenv("PELWEDGE_PRECISION", "200")
    code, out, _ = run(capsys, "verify", "vdrei", "--n", "2")
    assert code == 0
    header, _, _ = parse_jsonl(out)
    assert header["precision_bits"] == 200


def test_params_hash_stable():
    assert params_hash({"a": 1, "b": 2}) == params_hash({"b": 2, "a": 1})
    assert params_hash({"a": 1}) != params_hash({"a": 2})
