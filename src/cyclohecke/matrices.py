"""Exact matrices over any of the scalar types in exactnum.

Matrices are tuples of tuples.  A product takes its right factor as
sparse rows or as a diagonal, and the zero of the field from the caller.
Entries only need ring operations plus truth testing; rank and solving
additionally divide, which every scalar here supports.
"""


def mat_diag(entries, zero) -> tuple:
    """The diagonal matrix with the given entries, `zero` off the diagonal."""
    entries = list(entries)
    n = len(entries)
    return tuple(
        tuple(entries[i] if i == j else zero for j in range(n))
        for i in range(n)
    )


def mat_rows(A) -> tuple:
    """The sparse rows of A: row i as its (column, entry) pairs, zeros left out."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in A)


def mat_mul_sparse(A, S, zero) -> tuple:
    """A times the square matrix S given by its sparse rows (`mat_rows`);
    entry (i, j) sums the nonzero A[i][k] * S[k][j] in increasing k."""
    if A and len(A[0]) != len(S):
        raise ValueError("matrix dimension mismatch")
    out = []
    for row in A:
        acc = [zero] * len(S)
        for x, srow in zip(row, S):
            if x:
                for j, y in srow:
                    acc[j] = acc[j] + x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_scale_cols(A, d, zero) -> tuple:
    """A times the diagonal matrix with diagonal d: column j scaled by d[j],
    `zero` the zero of the field."""
    if A and len(A[0]) != len(d):
        raise ValueError("matrix dimension mismatch")
    return tuple(tuple(x * y if x and y else zero for x, y in zip(row, d))
                 for row in A)


def mat_trace(A):
    acc = A[0][0]
    for i in range(1, len(A)):
        acc = acc + A[i][i]
    return acc


def mat_eq(A, B) -> bool:
    if len(A) != len(B):
        return False
    return all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(A, B)
    )


def mat_is_zero(A) -> bool:
    return all(not x for row in A for x in row)


def _echelon(rows: list) -> list:
    """Reduce the list rows to row echelon form in place; return the pivot columns."""
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / pv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


def mat_rank(A) -> int:
    return len(_echelon([list(r) for r in A]))


def mat_solve(A, b) -> list:
    """The x with A x = b for square invertible A, by elimination."""
    n = len(A)
    if any(len(row) != n for row in A) or len(b) != n:
        raise ValueError("solve needs a square matrix and a matching column")
    rows = [list(row) + [v] for row, v in zip(A, b)]
    if _echelon(rows) != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    x = [None] * n
    for i in reversed(range(n)):
        acc = rows[i][n]
        for j in range(i + 1, n):
            acc = acc - rows[i][j] * x[j]
        x[i] = acc / rows[i][i]
    return x
