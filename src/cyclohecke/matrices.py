"""Exact matrices over any of the scalar types in exactnum.

A square matrix is kept as its sparse rows: row a is a tuple of
(column, entry) pairs in increasing column order, and a zero entry is
never stored.  So two matrices are equal exactly when their rows are
(``==``), a zero row costs nothing, and products, column scalings and
traces touch only the stored entries.  Entries are elements of a
field, so only a zero factor or a sum that cancels makes a zero, and
only those are dropped.  Rank and solving run on dense rows by one
elimination that does not divide.
"""


def rows_diag(entries) -> tuple:
    """The diagonal matrix with the given entries, as sparse rows."""
    return tuple(((a, x),) if x else () for a, x in enumerate(entries))


def rows_mul(A, B) -> tuple:
    """A times B, both square and given by sparse rows; entry (i, j) sums
    A[i][k] * B[k][j] over the stored pairs in increasing k, and a sum
    that cancels to zero is dropped."""
    if len(A) != len(B):
        raise ValueError("matrix dimension mismatch")
    out = []
    for row in A:
        if row:
            acc = {}
            for k, x in row:
                for j, y in B[k]:
                    acc[j] = acc[j] + x * y if j in acc else x * y
            row = tuple(sorted(item for item in acc.items() if item[1]))
        out.append(row)
    return tuple(out)


def rows_scale_cols(A, d) -> tuple:
    """A times the diagonal matrix with diagonal d: each stored entry in
    column j scaled by d[j], and dropped where d[j] is zero."""
    if len(A) != len(d):
        raise ValueError("matrix dimension mismatch")
    return tuple(tuple((j, x * d[j]) for j, x in row if d[j]) for row in A)


def rows_trace(A, zero, lo=0, hi=None):
    """The sum of the diagonal entries lo..hi-1 (all of them by default)
    in increasing order, `zero` standing for an entry that is not
    stored."""
    diag = [next((x for j, x in A[a] if j == a), zero)
            for a in range(lo, len(A) if hi is None else hi)]
    acc = diag[0]
    for x in diag[1:]:
        acc = acc + x
    return acc


def rows_rank(A, zero) -> int:
    """The rank of sparse rows of any width and number: one elimination
    over the dense rows of the columns that hold an entry, `zero` in
    the gaps, since a column without one adds nothing to the rank."""
    cols = {j: c for c, j in enumerate(sorted({j for row in A
                                                for j, _ in row}))}
    rows = []
    for row in A:
        dense = [zero] * len(cols)
        for j, x in row:
            dense[cols[j]] = x
        rows.append(dense)
    return len(_echelon(rows))


def _echelon(rows: list) -> list:
    """Reduce rows to echelon form in place, without dividing: a row with
    a below pivot p becomes p * row - a * (pivot row); return the pivot columns."""
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
            a = rows[i][col]
            if a:
                rows[i] = [pv * x - a * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


def mat_solve(A, b) -> list:
    """The x with A x = b for square invertible A; divides in back-substitution only."""
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
