"""Independent dense-elimination oracle used to cross-check sparse results.

Deliberately naive: dense row lists of Fractions, textbook Gaussian
elimination, no pivoting tricks shared with the production path.
"""

from fractions import Fraction


def dense_product(A, B) -> list:
    """A @ B as dense rows of Fractions, each entry summed term by term."""
    return [[sum((Fraction(A.get(i, k)) * Fraction(B.get(k, j)) for k in range(A.ncols)),
                 Fraction(0))
             for j in range(B.ncols)]
            for i in range(A.nrows)]


def dense_rank(M) -> int:
    rows = [[Fraction(0)] * M.ncols for _ in range(M.nrows)]
    for (i, j), v in M.entries.items():
        rows[i][j] = Fraction(v)  # int entries would make '/' below float division
    rank = 0
    row = 0
    for col in range(M.ncols):
        piv = None
        for i in range(row, M.nrows):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        pv = rows[row][col]
        for i in range(M.nrows):
            if i != row and rows[i][col]:
                f = rows[i][col] / pv
                for j in range(col, M.ncols):
                    rows[i][j] -= f * rows[row][j]
        row += 1
        rank += 1
        if row == M.nrows:
            break
    return rank


def dense_betti(cx, lo, hi) -> dict:
    """Betti numbers from dense ranks of the same differentials."""
    ranks = {}
    for n in range(lo, hi + 2):
        d = cx.diffs.get(n)
        ranks[n] = dense_rank(d) if d is not None else 0
    return {n: cx.dim(n) - ranks[n] - ranks[n + 1] for n in range(lo, hi + 1)}
