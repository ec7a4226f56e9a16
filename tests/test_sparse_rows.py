"""`SparseRows`, the nonzero-entry matrices of the Serre-Tate blocks: their
equality against dense rows, the entries they keep, and the witnesses and
bytes of the block checks built on them."""

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st
from modint import ModInt

from pelwedge import serretate
from pelwedge.cli import main
from pelwedge.exterior import SparseRows, compound, removal_matrix
from pelwedge.serretate import (
    DeformationParams,
    assemble_block,
    contract,
    generators,
    verify_vdrei,
    verify_vzehn,
    wedge_block,
)


@st.composite
def dense_matrices(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    cell = st.integers(-1, 1)
    return rows, cols, tuple(
        tuple(draw(cell) for _ in range(cols)) for _ in range(rows)
    )


def sparse(rows, cols, dense):
    return SparseRows(
        (rows, cols),
        {(i, j): x for i, row in enumerate(dense) for j, x in enumerate(row) if x},
    )


@given(dense_matrices(), dense_matrices())
def test_sparse_rows_equal_exactly_when_the_dense_rows_are_equal(left, right):
    a, b = sparse(*left), sparse(*right)
    dense_a, dense_b = left[2], right[2]
    same = dense_a == dense_b
    assert (a == b) is same and (a != b) is not same
    assert (a == dense_b) is same and (dense_b == a) is same
    assert (a == [list(row) for row in dense_b]) is same
    assert tuple(a) == dense_a and len(a) == len(dense_a)
    assert [a[i] for i in range(len(a))] == list(dense_a)
    assert SparseRows.of(dense_a) == a and SparseRows.of(a) is a


def no_falsy(matrix):
    return all(matrix.entries.values())


def test_no_falsy_entry_is_stored():
    modulus = 3**2
    three, six = ModInt(3, modulus), ModInt(6, modulus)
    # 3 * 3 and 3 * 6 - 3 * 3 vanish mod 9: no level of minors keeps them
    vanishing = [[three, three], [three, six]]
    assert compound(vanishing, 2).entries == {}
    assert compound(vanishing, 2) == ((0,),)
    (x, y) = generators("x", "y")
    zero = x - x
    assert not zero
    # x * y - y * x is the zero Polynomial
    assert compound([[x, y], [x, y]], 2).entries == {}
    assert no_falsy(compound([[x, zero, y], [zero, x, zero], [y, zero, x]], 2))

    values = (x, zero, y, 0)
    for k in range(1, 5):
        block = wedge_block(5, k, x, values)
        assert no_falsy(block.C) and no_falsy(block.assembled)
        assert block.C == removal_matrix(values, range(2, 6), k)
        params = contract(DeformationParams(1, 4, (values,)), k)
        assert no_falsy(params.phi)
        assert params.phi == removal_matrix(values, range(1, 5), k)
    modular = tuple(ModInt(v, modulus) for v in (0, 3, 9, 1))
    for k in range(1, 5):
        block = wedge_block(5, k, ModInt(9, modulus), modular)
        assert no_falsy(block.assembled)
        assert verify_vzehn(4, k, DeformationParams(1, 4, (modular,)), ModInt(9, modulus))
    assert no_falsy(assemble_block(zero, ((x, zero),), 1, 2).assembled)
    assert assemble_block(zero, ((x, zero),), 1, 2).assembled == ((0, x, 0), (0, 1, 0), (0, 0, 1))


def dense_witness(left, right):
    """The first differing (row, col) of two dense matrices, row by row,
    with the two entries there: the witness of a dense comparison."""
    left, right = tuple(map(tuple, left)), tuple(map(tuple, right))
    for i, (lrow, rrow) in enumerate(zip(left, right)):
        for j, (got, expected) in enumerate(zip(lrow, rrow)):
            if got != expected:
                return i, j, got, expected
    return None


def corrupt_wedge_block(monkeypatch, size, corruptions):
    """Make serretate build the wedge blocks of a size x size block with
    each (row, col) in corruptions replaced by delta(old entry, c1), kept
    a SparseRows, so the check compares nonzero entries on both sides."""
    original = serretate.wedge_block

    def corrupted(n, k, c1, c):
        block = original(n, k, c1, c)
        if n != size:
            return block
        entries = dict(block.assembled.entries)
        for (i, j), delta in corruptions:
            value = delta(entries.get((i, j), 0), c1)
            if value:
                entries[i, j] = value
            else:
                entries.pop((i, j), None)
        return replace(block, assembled=SparseRows(block.assembled.shape, entries))

    monkeypatch.setattr(serretate, "wedge_block", corrupted)
    return original


CORRUPTIONS = {
    "changed": [((1, 3), lambda x, c1: x + c1 * c1)],
    "dropped": [((0, 0), lambda x, c1: 0)],
    "added": [((5, 0), lambda x, c1: c1)],
    # the later corruption in entry order is the least (row, col)
    "least": [((4, 5), lambda x, c1: x + 1), ((2, 4), lambda x, c1: -c1), ((2, 1), lambda x, c1: 2)],
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_a_corrupted_block_has_the_witness_of_the_dense_comparison(name, monkeypatch):
    n, k = 5, 3
    c1, *c = generators(*(f"c{i}" for i in range(1, n + 1)))
    left = compound(assemble_block(c1, (tuple(c),), 1, n - 1).assembled, k)
    original = corrupt_wedge_block(monkeypatch, n, CORRUPTIONS[name])
    right = serretate.wedge_block(n, k, c1, c).assembled
    assert right != original(n, k, c1, c).assembled
    expected = dense_witness(left, right)
    assert expected is not None
    report = verify_vdrei(n, k)
    assert not report.ok and report.witness == expected

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "vdrei", "--n", str(n), "--k", str(k)])
    records = [json.loads(line)["record"] for line in out.getvalue().splitlines()[1:-1]]
    i, j, got, want = expected
    assert code == 1
    assert [r for r in records if r["status"] == "fail"] == [{
        "check": f"vdrei n={n} k={k}",
        "n": n,
        "k": k,
        "status": "fail",
        "witness": {"row": i, "col": j, "got": str(got), "expected": str(want)},
    }]


def test_random_corruptions_match_the_dense_comparison(monkeypatch):
    rng = random.Random(29)
    n = 6
    c1, *c = generators(*(f"c{i}" for i in range(1, n + 1)))
    for k in range(1, n + 1):
        size = len(serretate.wedge_block(n, k, c1, c).assembled)
        left = compound(assemble_block(c1, (tuple(c),), 1, n - 1).assembled, k)
        for _ in range(4):
            spots = [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(1, 3))]
            tweak = rng.choice([lambda x, y: 0, lambda x, y: x + y, lambda x, y: x - 1])
            with monkeypatch.context() as patch:
                corrupt_wedge_block(patch, n, [(spot, tweak) for spot in spots])
                right = serretate.wedge_block(n, k, c1, c).assembled
                assert verify_vdrei(n, k).witness == dense_witness(left, right)


# stdout of the dense-block implementation; on a 2-vCPU machine under
# CPython 3.11 these runs take 0.40 and 0.09 s in-process, against 1.40 and
# 0.89 s when every block was dense
PINNED = {
    "vdrei": ("9a77fe0be2902a3946b7cce3f36484070ba87648941996bb329661bb215b9e47", 1.2),
    "vzehn": ("a33658956bfc72c4da1c2bbfc9a9bfb0f81ddff97c27ae8e05198569b9910c40", 0.6),
}


@pytest.mark.parametrize("suite", sorted(PINNED))
def test_the_largest_block_suites_keep_their_bytes_within_a_time_budget(suite):
    digest, budget = PINNED[suite]
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", suite, "--n", "13"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    assert elapsed < budget, f"verify {suite} --n 13 took {elapsed:.2f} s, budget {budget} s"
