"""Exact linear algebra over Z_m: GF(p) elimination and a Smith form over Z/p^k.

Solves A x = b (mod m) for integer matrices, for every column b of a matrix
of right-hand sides in one elimination of A.  m is split into prime powers
p^k; each is solved on its own and the solutions are glued by the Chinese
remainder theorem, so a column is solvable iff it is solvable mod every
p^k.  Prime moduli go through Gauss-Jordan elimination of [A | B] to
reduced row-echelon form.  For p = 2 the rows are packed eight entries a
byte (np.packbits, little bit order), so a pivot test is one byte and one
bit mask and a row operation is an XOR of byte rows; odd primes keep int64
rows and scale and subtract.  The two paths cannot disagree: the reduced
row-echelon form of a matrix is unique, and with free variables set to 0
it fixes every solution and every unsolvable column bit for bit.  Prime
powers with k > 1 go through a Smith form over the local ring Z/p^k, where
every nonzero residue is a unit times a power of p.
"""

from __future__ import annotations

import numpy as np


def solve_mod_prime(A: np.ndarray, B: np.ndarray, p: int) -> list[np.ndarray | None]:
    """One solution of A x = b mod p (p prime) per column b of B, or None.

    Free variables are 0.  For p = 2 the rows of [A | B] are packed bits.
    """
    A, B = np.asarray(A), np.asarray(B)
    rows, cols = A.shape
    width = cols + B.shape[1]
    if p == 2:
        # the cast to uint8 wraps mod 256, so it keeps every entry's parity
        aug = np.concatenate([A.astype(np.uint8), B.astype(np.uint8)], axis=1) & 1
        aug = np.packbits(aug, axis=1, bitorder="little")
    else:
        aug = np.concatenate([A.astype(np.int64), B.astype(np.int64)], axis=1) % p

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
        # the pivot row is zero left of c, so the update starts at c
        if p == 2:
            aug[mask, c >> 3 :] ^= aug[r, c >> 3 :]
        else:
            aug[r, c:] = aug[r, c:] * pow(int(aug[r, c]), p - 2, p) % p
            aug[mask, c:] = (aug[mask, c:] - np.outer(aug[mask, c], aug[r, c:])) % p
        pivot_cols.append(c)
        r += 1
    if p == 2:
        aug = np.unpackbits(aug, axis=1, count=width, bitorder="little")
    # rows below the rank must be consistent
    solvable = ~np.any(aug[r:, cols:], axis=0)
    X = np.zeros((cols, aug.shape[1] - cols), dtype=np.int64)
    X[pivot_cols] = aug[: len(pivot_cols), cols:]
    return [X[:, j] if ok else None for j, ok in enumerate(solvable)]


def smith_normal_form(A: np.ndarray, B: np.ndarray, p: int, k: int) -> list[np.ndarray | None]:
    """One solution of A x = b mod q = p^k per column b of B, or None.

    The Smith form U A V = D = diag(p^v_t) over Z/p^k.  Pivots are taken
    valuation by valuation: while every entry of the remaining block is
    divisible by p^v, any entry of valuation exactly v divides the block.
    Its row is scaled to p^v, its column cleared by row operations on
    [A | B] (so U is never formed) and its row by column operations
    recorded in V.  With C = U B, a column is solvable iff p^v_t divides
    its row t below the rank and it is zero past the rank, and then
    x = V y with y_t = C_t / p^v_t.  Raises ValueError when q^2 cols
    reaches 2^63, where the int64 sums of V y could wrap.
    """
    A, B = np.asarray(A), np.asarray(B)
    rows, cols = A.shape
    q = p**k
    if q * q * cols >= 2**63:
        raise ValueError(f"modulus {q} is too large for int64 arithmetic over {cols} unknowns")
    aug = np.concatenate([A.astype(np.int64), B.astype(np.int64)], axis=1) % q
    V = np.eye(cols, dtype=np.int64)
    d = []
    t = 0
    for v in range(k):
        pv = p**v
        # columns t..c-1 hold no entry of valuation v below row t, and row
        # operations with a pivot of valuation v cannot create one there
        c = t
        while c < cols and t < rows:
            nz = np.nonzero(aug[t:, c] % (pv * p))[0]
            if nz.size == 0:
                c += 1
                continue
            i = t + nz[0]
            aug[[t, i]] = aug[[i, t]]
            aug[:, [t, c]] = aug[:, [c, t]]
            V[:, [t, c]] = V[:, [c, t]]
            # rows above t are zero from column t on, row t left of it
            aug[t, t:] = aug[t, t:] * pow(int(aug[t, t]) // pv, -1, q) % q
            below = t + 1 + np.nonzero(aug[t + 1 :, t])[0]
            aug[below, t:] = (aug[below, t:] - np.outer(aug[below, t] // pv, aug[t, t:])) % q
            V[:, t + 1 :] = (V[:, t + 1 :] - np.outer(V[:, t], aug[t, t + 1 : cols] // pv)) % q
            aug[t, t + 1 : cols] = 0
            d.append(pv)
            t += 1
            c += 1
    C = aug[:, cols:]
    d = np.array(d, dtype=np.int64).reshape(-1, 1)
    solvable = ~np.any(C[t:], axis=0) & ~np.any(C[:t] % d, axis=0)
    Y = np.zeros((cols, C.shape[1]), dtype=np.int64)
    Y[:t] = C[:t] // d
    X = V @ Y % q
    return [X[:, j] if ok else None for j, ok in enumerate(solvable)]


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


def solve_mod(A, B, m: int) -> list[np.ndarray | None]:
    """One solution x of A x = b (mod m) per column b of B, or None.

    A is a rows x cols matrix and B a rows x k matrix of right-hand sides;
    all k columns are solved in one elimination of A per prime power of m,
    and the solutions are glued by the Chinese remainder theorem.
    """
    A = np.asarray(A)
    B = np.asarray(B, dtype=np.int64)
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise ValueError(f"right-hand sides must be a {A.shape[0]} x k matrix, got shape {B.shape}")
    X = np.zeros((A.shape[1], B.shape[1]), dtype=np.int64)
    solvable = np.ones(B.shape[1], dtype=bool)
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
                X[:, j] += glued * ((x - X[:, j]) % q * lift % q)
        glued *= q
    return [X[:, j] if ok else None for j, ok in enumerate(solvable)]
