"""Exact linear algebra over Z_m on Python ints: a GF(2) XOR basis and a Smith form over Z/p^k.

Solves A x = b (mod m) for integer matrices, for every column b of a matrix
of right-hand sides in one elimination of A.  m is split into prime powers
p^k; each is solved on its own and the solutions are glued by the Chinese
remainder theorem, so a column is solvable iff it is solvable mod every
p^k.  Python ints are exact at any size, so no modulus is too large.

For a prime p the solution is the reduced row-echelon one: the pivots are
the leftmost independent columns of A (column c is a pivot iff it is not a
combination of columns 0..c-1) and free variables are 0.  The pivot
columns are independent, so a solvable b has exactly one solution supported
on them.  Any elimination that finds the same pivots therefore gives the
same solution, bit for bit, and rejects the same columns.

- p = 2: each column is one int, bit r for row r.  The columns of A are
  inserted left to right into an XOR basis keyed by the leading bit; a
  column that does not reduce to 0 is independent of those before it and
  becomes a pivot.  Each basis entry carries the mask of the pivot columns
  it sums, so a b that reduces to 0 is solved by the mask it collects.
- every p^k other than 2^1: a Smith form over the local ring Z/p^k, where
  every nonzero residue is a unit times a power of p.  At k = 1 every
  nonzero entry is a unit, so it takes as pivot the first column with a
  nonzero entry below the rows already pivoted: the leftmost independent
  column.  Its column operations only subtract a pivot column from the
  columns after it, so the first rank columns of V, the only ones that
  x = V y uses, are supported on the pivots: x is the solution above.
"""

from __future__ import annotations

from operator import index


class Matrix:
    """An integer matrix of shape (rows, cols) kept as sparse columns, one
    {row: nonzero entry} dict per column."""

    __slots__ = ("shape", "columns")

    def __init__(self, rows: int, columns: list[dict[int, int]]):
        self.shape = (rows, len(columns))
        self.columns = columns

    @staticmethod
    def from_rows(M) -> "Matrix":
        """The matrix of a sequence of equal-length rows of integers."""
        try:
            rows = [[index(v) for v in row] for row in M]
        except TypeError:
            raise ValueError("a matrix must be a sequence of rows of integers") from None
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("the rows of a matrix must have equal lengths")
        return Matrix(len(rows), [{r: v for r, v in enumerate(col) if v} for col in zip(*rows)])


def _as_matrix(M) -> Matrix:
    return M if isinstance(M, Matrix) else Matrix.from_rows(M)


def _dense_rows(A: Matrix, B: Matrix, q: int) -> list[list[int]]:
    """[A | B] mod q as one list of ints per row."""
    aug = [[0] * (A.shape[1] + B.shape[1]) for _ in range(A.shape[0])]
    for c, col in enumerate(A.columns + B.columns):
        for r, v in col.items():
            aug[r][c] = v % q
    return aug


def _transpose(rows: list[list[int]], width: int) -> list[tuple[int, ...]]:
    """The columns of a list of rows of the given width (which may be empty)."""
    return list(zip(*rows)) if rows else [()] * width


def _bits(column: dict[int, int]) -> int:
    """The column mod 2 as one int, bit r for row r."""
    return sum(1 << r for r, v in column.items() if v & 1)


def solve_mod_prime(A, B, p: int) -> list[list[int] | None]:
    """One solution of A x = b mod p (p prime) per column b of B, or None.

    The pivots are the leftmost independent columns and free variables are
    0 (see the module docstring): an XOR basis for p = 2, the Smith form at
    k = 1 for odd p.
    """
    if p != 2:
        return smith_normal_form(A, B, p, 1)
    A, B = _as_matrix(A), _as_matrix(B)
    cols = A.shape[1]
    basis: dict[int, tuple[int, int]] = {}  # leading bit -> (bits, pivot mask)

    def reduce(v: int, mask: int) -> tuple[int, int]:
        while v and (entry := basis.get(v.bit_length())):
            v, mask = v ^ entry[0], mask ^ entry[1]
        return v, mask

    for c, col in enumerate(A.columns):
        v, mask = reduce(_bits(col), 1 << c)
        if v:
            basis[v.bit_length()] = (v, mask)
    out = []
    for col in B.columns:
        v, mask = reduce(_bits(col), 0)
        out.append(None if v else [mask >> c & 1 for c in range(cols)])
    return out


def smith_normal_form(A, B, p: int, k: int) -> list[list[int] | None]:
    """One solution of A x = b mod q = p^k per column b of B, or None.

    The Smith form U A V = D = diag(p^v_t) over Z/p^k.  Pivots are taken
    valuation by valuation: while every entry of the remaining block is
    divisible by p^v, any entry of valuation exactly v divides the block.
    Its row is scaled to p^v, its column cleared by row operations on
    [A | B] (so U is never formed) and its row by column operations
    recorded in V, kept as the row list of its transpose.  With C = U B, a
    column is solvable iff p^v_t divides its row t below the rank and it is
    zero past the rank, and then x = V y with y_t = C_t / p^v_t.
    """
    A, B = _as_matrix(A), _as_matrix(B)
    rows, cols = A.shape
    q = p**k
    aug = _dense_rows(A, B, q)
    VT = [[int(i == j) for j in range(cols)] for i in range(cols)]
    d = []
    t = 0
    for v in range(k):
        pv = p**v
        # columns t..c-1 hold no entry of valuation v below row t, and row
        # operations with a pivot of valuation v cannot create one there
        c = t
        while c < cols and t < rows:
            i = next((i for i in range(t, rows) if aug[i][c] % (pv * p)), None)
            if i is None:
                c += 1
                continue
            aug[t], aug[i] = aug[i], aug[t]
            if c != t:
                for row in aug:
                    row[t], row[c] = row[c], row[t]
                VT[t], VT[c] = VT[c], VT[t]
            # rows above t are zero from column t on, row t left of it
            head = aug[t]
            u = pow(head[t] // pv, -1, q)
            head[t:] = tail = [x * u % q for x in head[t:]]
            for row in aug[t + 1 :]:
                if row[t]:
                    f = row[t] // pv
                    row[t:] = [(x - f * y) % q for x, y in zip(row[t:], tail)]
            pivot_col = VT[t]
            for j in range(t + 1, cols):
                f = head[j] // pv
                if f:
                    VT[j] = [(x - f * y) % q for x, y in zip(VT[j], pivot_col)]
            head[t + 1 : cols] = [0] * (cols - t - 1)
            d.append(pv)
            t += 1
            c += 1
    C = [row[cols:] for row in aug]
    nrhs = B.shape[1]
    solvable = [not any(col[t:]) and not any(y % dt for y, dt in zip(col, d)) for col in _transpose(C, nrhs)]
    # X = V Y, one axpy of a row of Y per nonzero entry of V
    X = [[0] * nrhs for _ in range(cols)]
    for dt, c_row, v_col in zip(d, C, VT):
        y_row = [y // dt for y in c_row]
        for r, a in enumerate(v_col):
            if a:
                X[r] = [x + a * y for x, y in zip(X[r], y_row)]
    return [[x % q for x in col] if ok else None for col, ok in zip(_transpose(X, nrhs), solvable)]


def _prime_powers(m: int) -> list[tuple[int, int]]:
    """(p, k) for each prime power p^k exactly dividing m, by trial division."""
    out = []
    p = 2
    while p * p <= m:
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def solve_mod(A, B, m: int) -> list[list[int] | None]:
    """One solution x of A x = b (mod m) per column b of B, or None.

    A is a rows x cols matrix and B a rows x k matrix of right-hand sides,
    each a Matrix or a sequence of rows; all k columns are solved in one
    elimination of A per prime power of m, and the solutions are glued by
    the Chinese remainder theorem.  Columns equal mod m are solved once.
    """
    A, B = _as_matrix(A), _as_matrix(B)
    if B.shape[0] != A.shape[0]:
        raise ValueError(f"right-hand sides must be a {A.shape[0]} x k matrix, got shape {B.shape}")
    position, distinct, where = {}, [], []
    for col in B.columns:
        key = frozenset((r, v % m) for r, v in col.items() if v % m)
        if key not in position:
            position[key] = len(distinct)
            distinct.append(col)
        where.append(position[key])
    B = Matrix(B.shape[0], distinct)
    X = [[0] * A.shape[1] for _ in B.columns]
    solvable = [True] * B.shape[1]
    glued = 1
    for p, k in _prime_powers(m):
        q = p**k
        part = solve_mod_prime(A, B, p) if k == 1 else smith_normal_form(A, B, p, k)
        # X = x mod q and keeps its residues mod glued
        lift = pow(glued, -1, q)
        for j, x in enumerate(part):
            if x is None:
                solvable[j] = False
            else:
                X[j] = [a + glued * ((b - a) * lift % q) for a, b in zip(X[j], x)]
        glued *= q
    return [list(X[j]) if solvable[j] else None for j in where]
