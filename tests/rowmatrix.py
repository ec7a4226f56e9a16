"""Matrices as rows of ring elements, one entry at a time: the reference
the array operations of `CycloMatrix` are checked against, and the
product the ring-generic tests use."""


def mat_mul(a, b):
    """The product of two matrices given as rows, over any ring."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    if any(len(row) != inner for row in a):
        raise ValueError("dimension mismatch")
    out = []
    for i in range(rows):
        out_row = []
        for j in range(cols):
            acc = None
            for t in range(inner):
                term = a[i][t] * b[t][j]
                acc = term if acc is None else acc + term
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def conj_transpose(matrix):
    """The transpose of the CM conjugates of rows of CycloElements."""
    return tuple(
        tuple(matrix[j][i].conj() for j in range(len(matrix)))
        for i in range(len(matrix[0]))
    )
