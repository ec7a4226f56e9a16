"""The per-block level walk: one walk of one square matrix for the
requested k, with no leading blocks read off it.  It is the oracle the
shared walk of `exterior.leading_compounds` is checked against, and the
compound over rows of ring elements the element-path tests use."""

from pelwedge.exterior import SparseRows, _laplace, _subset_masks


def block_compounds(matrix, ks):
    """(k, the k-th compound) for each k of ks in ascending order, as a
    `SparseRows` of the nonzero minors, from one walk by levels of the row
    prefixes that can still grow to the next requested k."""
    n = len(matrix)
    if not all(len(row) == n for row in matrix):
        raise ValueError("compound requires a square matrix")
    ks = sorted(set(ks))
    for k in ks:
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    rows = [[(c, (entry, -entry)) for c, entry in enumerate(row) if entry] for row in matrix]
    level, j = {0: {0: 1}}, 0  # the bitmask of each row prefix -> its minors
    for k in ks:
        while j < k:
            level = {
                used | 1 << r: _laplace(minors, rows[r])
                for used, minors in level.items()
                for r in range(used.bit_length(), n - k + j + 1)
            }
            j += 1
        index = _subset_masks(n, k)
        yield k, SparseRows((len(index), len(index)), {
            (index[used], index[cols]): minor
            for used, minors in level.items()
            for cols, minor in minors.items()
        })
