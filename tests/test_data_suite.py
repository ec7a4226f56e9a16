"""`verify data` decides each record from one pair of CM types per set of
embedding cases; the loop over all ordered pairs is its oracle."""

import pytest

from pelwedge import cli, hodge
from pelwedge.cyclofield import all_cm_types, cyclo_field
from pelwedge.hodge import EmbeddingCase

MS = (3, 4, 5, 8, 12, 16)


def brute_force_records(m_list, n_max):
    """Every ordered pair of distinct CM types through `verify_type11`, the
    witness being the first failing pair."""
    records = []
    for m in m_list:
        types = all_cm_types(cyclo_field(m))
        for n in range(1, n_max + 1):
            for k in range(n + 1):
                pairs = fails = 0
                witness = None
                for phi0 in types:
                    for phin in types:
                        if phi0.members == phin.members:
                            continue
                        pairs += 1
                        report = hodge.verify_type11(n, k, phi0, phin)
                        if not report.ok:
                            fails += 1
                            if witness is None:
                                witness = {
                                    "phi0": sorted(phi0.members),
                                    "phin": sorted(phin.members),
                                    "weights": {
                                        str(r): {str(pq): mult for pq, mult in ws.items()}
                                        for r, ws in report.weights.items()
                                    },
                                }
                rec = {
                    "check": f"data m={m} n={n} k={k}",
                    "m": m,
                    "n": n,
                    "k": k,
                    "pairs": pairs,
                    "status": "pass" if fails == 0 else "fail",
                }
                if witness is not None:
                    rec["witness"] = witness
                records.append(rec)
    return records


def suite_records(m_list, n_max):
    return list(cli._suite_data(m_list, n_max))


def test_records_match_the_brute_force_loop():
    records = suite_records(MS, 4)
    assert records == brute_force_records(MS, 4)
    assert all(r["status"] == "pass" for r in records)
    assert [r["pairs"] for r in records if r["n"] == 1 and r["k"] == 0] == [
        2, 2, 12, 12, 12, 240
    ]


def test_at_most_two_type11_calls_per_record(monkeypatch):
    calls = []

    def counted(n, k, phi0, phin):
        calls.append((n, k))
        return hodge.verify_type11(n, k, phi0, phin)

    monkeypatch.setattr(cli, "verify_type11", counted)
    records = suite_records((13, 16), 3)
    assert len(calls) <= 2 * len(records)
    assert records[0]["pairs"] == 64 * 63


@pytest.mark.parametrize(
    "case",
    [
        EmbeddingCase.BOTH,  # met only by pairs with phin != conj(phi0)
        EmbeddingCase.NEITHER,
        EmbeddingCase.ONLY0,  # met by every pair, phin = conj(phi0) among them
        EmbeddingCase.ONLYN,
    ],
)
def test_a_failing_case_gives_the_oracle_status_and_witness(monkeypatch, case):
    wedge_weights = hodge.wedge_weights

    def broken(c, n, k):
        weights = wedge_weights(c, n, k)
        if c is case and k == 1:
            return {**weights, (2, 2): 1}
        return weights

    monkeypatch.setattr(hodge, "wedge_weights", broken)
    records = suite_records(MS, 4)
    assert records == brute_force_records(MS, 4)
    failed = [r for r in records if r["status"] == "fail"]
    assert failed and all(r["k"] == 1 and "witness" in r for r in failed)
    if case in (EmbeddingCase.BOTH, EmbeddingCase.NEITHER):
        # Q(zeta_3) and Q(i) have one conjugate pair: every pair is conjugate
        assert {r["m"] for r in failed} == {5, 8, 12, 16}
    else:
        assert {r["m"] for r in failed} == set(MS)


@pytest.mark.parametrize("m", [3, 4, 5, 7, 8, 9, 12, 13, 15, 16, 17, 20, 21, 24, 28])
def test_representatives_are_the_first_pair_of_each_case_set(m):
    field = cyclo_field(m)
    types = all_cm_types(field)
    pairs, first = 0, {}
    for phi0 in types:
        for phin in types:
            if phi0.members != phin.members:
                pairs += 1
                cases = frozenset(hodge.case_of(u, phi0, phin) for u in field.units)
                first.setdefault(cases, (phi0.members, phin.members))
    got_pairs, representatives = cli._case_representatives(field)
    assert got_pairs == pairs
    assert [(phi0.members, phin.members) for phi0, phin in representatives] == list(first.values())
