"""Exact linear algebra over Z_m: GF(p) elimination and Smith normal form.

Solves A x = b (mod m) for integer matrices, for every column b of a matrix
of right-hand sides in one elimination of A.  Prime moduli go through
Gauss-Jordan elimination of [A | B] to reduced row-echelon form.  For p = 2
the rows are packed eight entries a byte (np.packbits, little bit order),
so a pivot test is one byte and one bit mask and a row operation is an XOR
of byte rows; odd primes keep int64 rows and scale and subtract.  The two
paths cannot disagree: the reduced row-echelon form of a matrix is unique,
and with free variables set to 0 it fixes every solution and every
unsolvable column bit for bit.  Composite moduli go through an integer
Smith normal form A = U^-1 D V^-1 so that the diagonal system
d_i y_i = (U b)_i can be solved residue by residue.
"""

from __future__ import annotations

from math import gcd

import numpy as np


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def solve_mod_prime(A: np.ndarray, B: np.ndarray, p: int) -> list[np.ndarray | None]:
    """One solution of A x = b mod p (p prime) per column b of B, or None.

    Free variables are 0.  For p = 2 the rows of [A | B] are packed bits.
    """
    A, B = np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64)
    rows, cols = A.shape
    width = cols + B.shape[1]
    if p == 2:
        # the cast to uint8 wraps mod 256, so it keeps every entry's parity
        aug = np.concatenate([A.astype(np.uint8), B.astype(np.uint8)], axis=1) & 1
        aug = np.packbits(aug, axis=1, bitorder="little")
    else:
        aug = np.concatenate([A, B], axis=1) % p

    def column(c):
        return aug[:, c >> 3] & (1 << (c & 7)) if p == 2 else aug[:, c]

    pivot_cols = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(column(c)[r:])[0]
        if nz.size == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            aug[[r, pr]] = aug[[pr, r]]
        mask = np.nonzero(column(c))[0]
        mask = mask[mask != r]
        if p == 2:
            # the pivot row is zero left of c, so the XOR starts at c's byte
            aug[mask, c >> 3 :] ^= aug[r, c >> 3 :]
        else:
            aug[r] = aug[r] * pow(int(aug[r, c]), p - 2, p) % p
            aug[mask] = (aug[mask] - np.outer(aug[mask, c], aug[r])) % p
        pivot_cols.append(c)
        r += 1
    if p == 2:
        aug = np.unpackbits(aug, axis=1, count=width, bitorder="little")
    # rows below the rank must be consistent
    solvable = ~np.any(aug[r:, cols:], axis=0)
    X = np.zeros((cols, aug.shape[1] - cols), dtype=np.int64)
    X[pivot_cols] = aug[: len(pivot_cols), cols:]
    return [X[:, j] if ok else None for j, ok in enumerate(solvable)]


def _exgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smith_normal_form(A: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(U, D, V) with U A V = D diagonal, U and V unimodular.

    Plain-int implementation; fine for the small coboundary matrices this
    package ever feeds it.
    """
    D = [list(map(int, row)) for row in A]
    rows = len(D)
    cols = len(D[0]) if rows else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_combine(i, j, a, b, c, d):
        # (row_i, row_j) <- (a row_i + b row_j, c row_i + d row_j), same on U
        for M in (D, U):
            ri, rj = M[i], M[j]
            for k in range(len(ri)):
                ri[k], rj[k] = a * ri[k] + b * rj[k], c * ri[k] + d * rj[k]

    def col_combine(i, j, a, b, c, d):
        for M in (D, V):
            for row in M:
                row[i], row[j] = a * row[i] + b * row[j], c * row[i] + d * row[j]

    def clear_position(t):
        # plain elimination when the pivot divides (no pivot churn);
        # gcd mixing otherwise (strictly shrinks |pivot|), so this terminates
        while True:
            moved = False
            for i in range(t + 1, rows):
                e = D[i][t]
                if e == 0:
                    continue
                piv = D[t][t]
                if piv != 0 and e % piv == 0:
                    row_combine(t, i, 1, 0, -(e // piv), 1)
                else:
                    g, x, y = _exgcd(piv, e)
                    row_combine(t, i, x, y, -(e // g), piv // g)
                moved = True
            for j in range(t + 1, cols):
                e = D[t][j]
                if e == 0:
                    continue
                piv = D[t][t]
                if piv != 0 and e % piv == 0:
                    col_combine(t, j, 1, 0, -(e // piv), 1)
                else:
                    g, x, y = _exgcd(piv, e)
                    col_combine(t, j, x, y, -(e // g), piv // g)
                moved = True
            if not moved:
                return

    n = min(rows, cols)
    for t in range(n):
        # bring a nonzero entry to (t, t)
        pos = None
        for i in range(t, rows):
            for j in range(t, cols):
                if D[i][j] != 0:
                    pos = (i, j)
                    break
            if pos:
                break
        if pos is None:
            break
        i, j = pos
        if i != t:
            D[t], D[i] = D[i], D[t]
            U[t], U[i] = U[i], U[t]
        if j != t:
            for M in (D, V):
                for row in M:
                    row[t], row[j] = row[j], row[t]
        clear_position(t)
    # enforce divisibility d_t | d_{t+1}: fold the offender into row t and re-clear
    changed = True
    while changed:
        changed = False
        for t in range(n - 1):
            dt = D[t][t]
            if dt == 0:
                continue
            for i in range(t + 1, n):
                if D[i][i] % dt != 0:
                    row_combine(t, i, 1, 1, 0, 1)
                    clear_position(t)
                    changed = True
                    break
            if changed:
                break
    for t in range(n):
        if D[t][t] < 0:
            for row in D:
                row[t] = -row[t]
            for row in V:
                row[t] = -row[t]
    return U, D, V


def solve_mod_snf(A: np.ndarray, B: np.ndarray, m: int) -> list[np.ndarray | None]:
    """One solution of A x = b (mod m) per column b of B via Smith normal form, or None."""
    rows, cols = A.shape
    U, D, V = smith_normal_form(A.tolist())
    # only residues mod m matter, so U and V are reduced before multiplying
    C = (np.asarray(U, dtype=object) % m).astype(np.int64) @ (B % m) % m
    Y = np.zeros((cols, B.shape[1]), dtype=np.int64)
    solvable = np.ones(B.shape[1], dtype=bool)
    for i in range(rows):
        d = D[i][i] if i < min(rows, cols) else 0
        if d == 0:
            solvable &= C[i] == 0
            continue
        g = gcd(d, m)
        solvable &= C[i] % g == 0
        mm = m // g
        if mm > 1:
            Y[i] = (C[i] // g) * pow((d // g) % mm, -1, mm) % m
    X = (np.asarray(V, dtype=object) % m).astype(np.int64) @ Y % m
    return [X[:, j] if ok else None for j, ok in enumerate(solvable)]


def solve_mod(A, B, m: int) -> list[np.ndarray | None]:
    """One solution x of A x = b (mod m) per column b of B, or None.

    A is a rows x cols matrix and B a rows x k matrix of right-hand sides;
    all k columns are solved in one elimination of A.
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise ValueError(f"right-hand sides must be a {A.shape[0]} x k matrix, got shape {B.shape}")
    if A.size == 0:
        return [None if np.any(b % m) else np.zeros(A.shape[1], dtype=np.int64) for b in B.T]
    if is_prime(m):
        return solve_mod_prime(A, B, m)
    return solve_mod_snf(A, B, m)
