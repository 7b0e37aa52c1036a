import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomalion.linalg import smith_normal_form, solve_mod, solve_mod_prime


@st.composite
def small_matrix(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    data = draw(st.lists(st.integers(-6, 6), min_size=rows * cols, max_size=rows * cols))
    return [data[i * cols : (i + 1) * cols] for i in range(rows)]


@given(st.sampled_from([4, 6, 8, 9, 12, 16, 18, 27]), st.data())
@settings(max_examples=300, deadline=None)
def test_solve_mod_matches_brute_force(m, data):
    """Composite moduli against enumeration of every x in Z_m^cols."""
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 3))
    scale = data.draw(st.sampled_from([1, 2, 3, 4]))  # shared factors of m
    entries = st.lists(st.integers(-6, 6), min_size=rows * cols, max_size=rows * cols)
    A = scale * np.array(data.draw(entries), dtype=np.int64).reshape(rows, cols)
    columns = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):  # in the image of A
            columns.append(A @ np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=cols, max_size=cols))))
        else:  # arbitrary, often unsolvable
            columns.append(np.array(data.draw(st.lists(st.integers(-m, m), min_size=rows, max_size=rows))))
    B = np.array(columns, dtype=np.int64).T
    solved = solve_mod(A, B, m)
    assert len(solved) == B.shape[1]
    if m**cols <= 5000:
        xs = np.array(list(itertools.product(range(m), repeat=cols)), dtype=np.int64).reshape(-1, cols)
        images = xs @ A.T % m
        for b, x in zip(B.T, solved):
            assert (x is not None) == bool(np.any(np.all(images == b % m, axis=1)))
    for b, x in zip(B.T, solved):
        if x is not None:
            assert np.array_equal((A @ x - b) % m, np.zeros_like(b))


@given(small_matrix(), st.sampled_from([2, 3, 4, 5, 6, 8]), st.data())
@settings(max_examples=150, deadline=None)
def test_solve_mod_roundtrip(A, m, data):
    rows, cols = len(A), len(A[0])
    x = data.draw(st.lists(st.integers(0, m - 1), min_size=cols, max_size=cols))
    b = [sum(A[i][j] * x[j] for j in range(cols)) % m for i in range(rows)]
    [sol] = solve_mod(A, [[v] for v in b], m)
    assert sol is not None
    for i in range(rows):
        assert sum(A[i][j] * int(sol[j]) for j in range(cols)) % m == b[i] % m


def test_solve_mod_unsolvable():
    # 2x = 1 mod 4 has no solution
    assert solve_mod([[2]], [[1]], 4) == [None]
    assert solve_mod([[2]], [[1]], 2) == [None]
    assert solve_mod([[3]], [[1]], 5)[0] is not None
    with pytest.raises(ValueError):
        solve_mod([[3]], [1], 5)  # right-hand sides are columns of a matrix


@given(small_matrix(), st.sampled_from([2, 3, 4, 5, 6, 8, 9]), st.data())
@settings(max_examples=150, deadline=None)
def test_solve_mod_columns_match_single_solves(A, m, data):
    rows, cols = len(A), len(A[0])
    k = data.draw(st.integers(1, 5))
    columns = []
    for _ in range(k):
        if data.draw(st.booleans()):  # in the image of A
            x = data.draw(st.lists(st.integers(0, m - 1), min_size=cols, max_size=cols))
            columns.append([sum(A[i][j] * x[j] for j in range(cols)) % m for i in range(rows)])
        else:  # arbitrary, often unsolvable
            columns.append(data.draw(st.lists(st.integers(0, m - 1), min_size=rows, max_size=rows)))
    B = np.array(columns, dtype=np.int64).T
    solved = solve_mod(A, B, m)
    assert len(solved) == k
    for j, sol in enumerate(solved):
        [single] = solve_mod(A, B[:, j : j + 1], m)
        assert (sol is None) == (single is None)
        if sol is not None:
            assert np.array_equal(sol, single)
            assert np.array_equal(np.array(A, dtype=np.int64) @ sol % m, B[:, j] % m)
    # a column built to be solvable is solved
    x = data.draw(st.lists(st.integers(0, m - 1), min_size=cols, max_size=cols))
    b = np.array(A, dtype=np.int64) @ np.array(x, dtype=np.int64) % m
    assert solve_mod(A, np.column_stack([B, b]), m)[-1] is not None


def reference_solve_mod_prime(A, B, p):
    """Gauss-Jordan elimination of [A | B] on int64 rows for every prime
    alike: the reference for solve_mod_prime's XOR basis (p = 2) and its
    Smith form at k = 1 (odd p)."""
    A = np.asarray(A, dtype=np.int64) % p
    rows, cols = A.shape
    aug = np.concatenate([A, np.asarray(B, dtype=np.int64) % p], axis=1)
    pivot_cols = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(aug[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            aug[[r, pr]] = aug[[pr, r]]
        inv = pow(int(aug[r, c]), p - 2, p) if p > 2 else int(aug[r, c])
        aug[r] = (aug[r] * inv) % p
        mask = np.nonzero(aug[:, c])[0]
        mask = mask[mask != r]
        if mask.size:
            aug[mask] = (aug[mask] - np.outer(aug[mask, c], aug[r])) % p
        pivot_cols.append(c)
        r += 1
    solvable = ~np.any(aug[r:, cols:], axis=0)
    X = np.zeros((cols, aug.shape[1] - cols), dtype=np.int64)
    X[pivot_cols] = aug[: len(pivot_cols), cols:]
    return [X[:, j] if ok else None for j, ok in enumerate(solvable)]


@st.composite
def wide_system(draw):
    """[A | B] wide enough that columns, and the start of B, cross the byte
    boundaries of packed GF(2) rows; each column of B is in the image of A
    or arbitrary."""
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 80))
    rank = draw(st.integers(0, min(rows, cols)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # rank at most `rank`, so arbitrary columns are often unsolvable
    A = rng.integers(-3, 4, size=(rows, rank)) @ rng.integers(0, 2, size=(rank, cols))
    columns = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            columns.append(A @ rng.integers(0, 2, size=cols))
        else:
            columns.append(rng.integers(-2, 3, size=rows))
    B = np.array(columns, dtype=np.int64).reshape(-1, rows).T
    return A, B


@given(wide_system(), st.sampled_from([2, 2, 2, 3, 5, 7]))
@settings(max_examples=200, deadline=None)
def test_solve_mod_prime_matches_reference(system, p):
    A, B = system
    got = solve_mod_prime(A, B, p)
    want = reference_solve_mod_prime(A, B, p)
    assert len(got) == len(want) == B.shape[1]
    for b, x, ref in zip(B.T, got, want):
        assert (x is None) == (ref is None)
        if x is not None:
            assert list(x) == ref.tolist()
            assert np.array_equal((A @ x - b) % p, np.zeros_like(b))


def test_solve_mod_prime_gf2_reads_the_parity_of_large_entries():
    A = np.array([[2**40 + 1, 2**41], [-(2**35), -(2**50) - 1]])
    B = np.array([[-(2**33) - 1, 2**9], [2**20 + 1, 1]])
    x, y = solve_mod_prime(A, B, 2)
    assert list(x) == [1, 1]
    assert list(y) == [0, 1]


def test_smith_normal_form_solves_moduli_past_int64():
    """Python ints are exact, so sums of V y past 2^63 do not wrap."""
    A = np.eye(4, dtype=np.int64)
    B = np.ones((4, 1), dtype=np.int64)
    [x] = smith_normal_form(A, B, 2, 30)  # 2^60 * 4 = 2^62
    assert list(x) == [1, 1, 1, 1]
    wide = np.eye(4, 8, dtype=np.int64)
    [x] = smith_normal_form(wide, B, 2, 30)  # 2^60 * 8 = 2^63
    assert list(x) == [1, 1, 1, 1, 0, 0, 0, 0]
    # a dense system whose right-hand side is in the image by construction
    q = 2**30
    rng = np.random.default_rng(30)
    dense = [[int(v) for v in row] for row in rng.integers(0, q, size=(4, 8))]
    x0 = [int(v) for v in rng.integers(0, q, size=8)]
    b = [[sum(a * v for a, v in zip(row, x0)) % q] for row in dense]
    [x] = smith_normal_form(dense, b, 2, 30)
    assert all(0 <= v < q for v in x)
    assert [sum(a * v for a, v in zip(row, x)) % q for row in dense] == [r[0] for r in b]
    m = 3 * 2**32
    [x] = solve_mod([[1]], [[1]], m)
    assert x == [1]


@pytest.mark.parametrize("m", [2, 3, 4, 12])
def test_solve_mod_solves_repeated_columns_once(m, monkeypatch):
    """Columns equal mod m are solved once: each gets the solution of a
    single-column solve, and the elimination sees only the distinct ones."""
    import anomalion.linalg as linalg

    rng = random.Random(m)
    A = [[rng.randrange(-m, m) for _ in range(4)] for _ in range(5)]
    x0 = [rng.randrange(m) for _ in range(4)]
    distinct = [[sum(a * x for a, x in zip(row, x0)) % m for row in A]]  # solvable
    distinct += [[rng.randrange(m) for _ in range(5)] for _ in range(2)]
    picks = [rng.randrange(3) for _ in range(12)]
    # a repeat may differ by a multiple of m
    columns = [[v + m * rng.randrange(-1, 2) for v in distinct[j]] for j in picks]
    B = [list(row) for row in zip(*columns)]
    widths = []
    for name in ("solve_mod_prime", "smith_normal_form"):
        fn = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda A, B, *pk, fn=fn: widths.append(B.shape[1]) or fn(A, B, *pk))
    solved = solve_mod(A, B, m)
    assert widths and set(widths) == {len(set(picks))}
    monkeypatch.undo()
    assert len(solved) == len(columns) and any(x is not None for x in solved)
    for col, x in zip(columns, solved):
        [single] = solve_mod(A, [[v] for v in col], m)
        assert x == single
