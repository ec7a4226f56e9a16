"""Tests of the benchmark's own logic: self time, the percentile rule, the
binding-aware tracer, the oracles and the determinism check."""

import json

import pytest

from perfbench import oracles, stats, tracer
from perfbench.workloads import Request
from perfbench.worker import Result, timed_phase, verify


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    #   0: root [0, 10]
    #   1: child [1, 4]   2: grandchild [2, 3] under 1
    #   3: child [3, 6]   overlaps 1; the union [1, 6] counts once
    #   4: child [9, 12]  runs past the root; only [9, 10] counts
    starts = [0.0, 1.0, 2.0, 3.0, 9.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    assert tracer.self_times(starts, ends, parents) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_self_time_of_sequential_children():
    starts = [0.0, 0.5, 2.0, 2.1]
    ends = [3.0, 1.5, 2.5, 2.35]
    parents = [-1, 0, 0, 2]
    assert tracer.self_times(starts, ends, parents) == pytest.approx([1.5, 1.0, 0.25, 0.25])


def test_p90_is_omitted_below_one_hundred_samples():
    assert stats.p90(list(range(99))) is None
    assert stats.p90(list(range(100))) == pytest.approx(89.1)
    assert stats.p50([3.0, 1.0, 2.0]) == 2.0


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 5) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


def test_tracer_wraps_every_binding_and_restores_them():
    import pelwedge.cli
    import pelwedge.pairings
    from pelwedge.cyclofield import CycloElement, cyclo_field

    original = pelwedge.pairings.verify_prinz
    mul = CycloElement.__dict__["__mul__"]
    t = tracer.Tracer()
    t.install()
    try:
        assert pelwedge.cli.verify_prinz is pelwedge.pairings.verify_prinz
        assert pelwedge.cli.verify_prinz is not original
        x = cyclo_field(5).zeta
        x * x
        2 * x  # __rmul__ is the same function and counts too
        assert t.counts["cyclofield.mul"][0] == 2
    finally:
        t.uninstall()
    assert pelwedge.cli.verify_prinz is original
    assert CycloElement.__dict__["__mul__"] is mul
    assert CycloElement.__dict__["__rmul__"] is mul


def test_traced_request_yields_layer_metrics():
    import pelwedge.cli

    t = tracer.Tracer()
    t.install()
    try:
        t.request = 0
        code = pelwedge.cli.main(["verify", "prinz", "--trials", "1", "--m", "5", "--n", "2",
                                  "--seed", "3"])
    finally:
        t.uninstall()
    assert code == 0
    metrics = t.metrics(1)
    assert set(metrics) == set(tracer.TRACE_METRICS)
    assert metrics["cli.main.self_s"][0] > 0
    assert metrics["pairings.verify_prinz.self_s"][0] > 0
    assert metrics["instances.accept_ratio"][0] > 0
    assert metrics["hodge.verify_type11.calls"][0] == 0


def test_a_missing_name_drops_its_metrics_without_crashing(monkeypatch, capsys):
    monkeypatch.setitem(tracer.SPANS, "exterior.compound", ("pelwedge.exterior", "no_such"))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    metrics = t.metrics(1)
    assert "exterior.compound.self_s" not in metrics
    assert "exterior.compound.calls" not in metrics
    assert "exterior.wedge_gram.self_s" in metrics
    assert "not found" in capsys.readouterr().err


def _report(*records) -> str:
    lines = [{"header": {"suite": "x"}}] + [{"record": r} for r in records]
    lines.append({"summary": {"checks": len(records)}})
    return "".join(json.dumps(line) + "\n" for line in lines)


PRINZ = Request(("verify", "prinz"), "prinz", 1)
PRINZ_PASS = {"check": "prinz k=1", "status": "pass", "output_valuation": 0,
              "input_valuations": [0, 0]}


def test_prinz_oracle():
    assert oracles.check(PRINZ, 0, _report(PRINZ_PASS)) is None
    assert oracles.check(PRINZ, 1, _report(PRINZ_PASS)) == "exit code 1"
    assert "status fail" in oracles.check(PRINZ, 0, _report(dict(PRINZ_PASS, status="fail")))
    assert "not perfect" in oracles.check(PRINZ, 0, _report(dict(PRINZ_PASS, output_valuation=1)))
    assert "records" in oracles.check(PRINZ, 0, _report(PRINZ_PASS, PRINZ_PASS))
    assert "malformed" in oracles.check(PRINZ, 0, _report({"check": "prinz k=1"}))
    assert "malformed" in oracles.check(PRINZ, 0, "not json\n")


def test_suite_oracle():
    suite = Request(("verify", "vdrei"), "suite", 2)
    ok = {"check": "vdrei n=1 k=1", "status": "pass"}
    assert oracles.check(suite, 0, _report(ok, ok)) is None
    assert "status vacuous" in oracles.check(suite, 0, _report(ok, dict(ok, status="vacuous")))


def test_signature_oracle():
    # Psi = diag(zeta, zeta) over Q(i): i * Psi is -I at sigma_1 and I at sigma_3
    pel = {"m": 4, "n": 2, "gram1": [[[0, 1], [0, 0]], [[0, 0], ["0", "1/1"]]]}
    assert oracles.expected_signatures(pel) == {1: (0, 2), 3: (2, 0)}
    signatures = {"y.pel": (2, oracles.expected_signatures(pel))}
    request = Request(("table", "signatures"), "signatures", 2, "y.pel")
    rows = [{"embedding": 1, "p": 0, "q": 2}, {"embedding": 3, "p": 2, "q": 0}]
    assert oracles.check(request, 0, _report(*rows), signatures) is None
    swapped = [dict(rows[0], p=2, q=0), rows[1]]
    assert "disagree" in oracles.check(request, 0, _report(*swapped), signatures)
    short = [dict(rows[0], q=1), rows[1]]
    assert "p+q=1" in oracles.check(request, 0, _report(*short), signatures)


def test_verify_counts_nondeterministic_stdout():
    ok = _report(PRINZ_PASS)
    same = [Result(PRINZ, 0, ok, 0.1, None), Result(PRINZ, 0, ok, 0.1, None)]
    assert verify(same) == 0
    other = _report(dict(PRINZ_PASS, check="prinz k=2"))
    assert verify(same + [Result(PRINZ, 0, other, 0.1, None)]) == 1
    assert verify([Result(PRINZ, None, "", 0.1, "Traceback ...")]) == 1


def test_timed_phase_runs_whole_rounds():
    class Program:
        calls = 0

        def main(self, argv):
            Program.calls += 1
            return 0

    rounds = ((PRINZ, PRINZ, PRINZ),)
    results, _, done = timed_phase(Program(), rounds, 0.0)
    assert done == 1 and len(results) == 3 and Program.calls == 3
