"""Dense reference semantics for small qubit systems.

Operators are dense integer matrices over an explicit site list; gate
matrices are built from per-gate truth tables (bit flips and counting
phases per basis state), never from the package's F2 polynomial algebra.
This keeps the oracle independent of the code paths it checks.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from anomalion.symop import SymOp, support


class DenseSpace:
    def __init__(self, sites):
        self.sites = sorted(sites)
        self.index = {s: i for i, s in enumerate(self.sites)}
        self.n = len(self.sites)
        if self.n > 14:
            raise ValueError("dense space too large")
        self.dim = 1 << self.n

    def bit(self, state: int, site) -> int:
        return (state >> self.index[site]) & 1

    def gate_matrix(self, kind: str, sites) -> np.ndarray:
        """Dense matrix of an elementary gate from its truth table."""
        d = self.dim
        M = np.zeros((d, d), dtype=np.int64)
        for a in range(d):
            if kind == "X":
                mask = 0
                for s in sites:
                    mask |= 1 << self.index[s]
                M[a ^ mask, a] = 1
            elif kind in ("Z", "CZ", "CCZ", "DIAG"):
                phase = 1
                if all(self.bit(a, s) for s in sites):
                    phase = -1
                M[a, a] = phase
            elif kind == "SCALAR":
                M[a, a] = -1
            else:
                raise ValueError(kind)
        return M

    def symop_perm(self, op: SymOp) -> tuple[np.ndarray, np.ndarray]:
        """op as a signed permutation of the basis: op|a> = sign[a] |image[a]>.

        Evaluation is per basis state (truth-table style, over all states at
        once with bit operations); the product / conjugation algebra under
        test is never consulted.
        """
        mask = 0
        for s in op.flips:
            mask |= 1 << self.index[s]
        image = np.arange(self.dim, dtype=np.int64) ^ mask
        val = np.zeros(self.dim, dtype=np.int64)
        for mono in op.poly:
            hit = np.ones(self.dim, dtype=np.int64)
            for s in mono:
                hit &= image >> self.index[s] & 1
            val ^= hit
        return image, np.where(val, -1, 1)

    def scatter(self, image: np.ndarray, sign: np.ndarray) -> np.ndarray:
        """The dense matrix of the signed permutation (image, sign)."""
        M = np.zeros((self.dim, self.dim), dtype=np.int64)
        M[image, np.arange(self.dim)] = sign
        return M

    def symop_matrix(self, op: SymOp) -> np.ndarray:
        """Render a SymOp densely from its signed permutation."""
        return self.scatter(*self.symop_perm(op))

    @staticmethod
    def compose(p: tuple, q: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The signed permutation of the product P Q (Q applied first):
        P Q|a> = sign_q[a] sign_p[image_q[a]] |image_p[image_q[a]]>."""
        (image_p, sign_p), (image_q, sign_q) = p, q
        return image_p[image_q], sign_p[image_q] * sign_q

    def circuit_matrix(self, circuit) -> np.ndarray:
        """W_N ... W_1 for a circuit (first layer rightmost).

        Multiplied in float64, which BLAS does fast, and returned as int64:
        every factor is a signed permutation matrix, so each entry of a
        product is a single +-1 term and the float result is exact.
        """
        W = np.eye(self.dim)
        for layer in circuit.layers:
            L = np.eye(self.dim)
            for g in layer:
                L = L @ self.symop_matrix(g)
            W = L @ W
        return W.astype(np.int64)

    def state_vector(self, basis: dict | str = "z") -> np.ndarray:
        """Unnormalized product state: |0> ('z') or |+> ('x') per site."""
        vec = np.ones(1, dtype=np.int64)
        for s in reversed(self.sites):
            b = basis if isinstance(basis, str) else basis.get(s, "z")
            local = np.array([1, 0], dtype=np.int64) if b == "z" else np.array([1, 1], dtype=np.int64)
            vec = np.kron(local, vec)
        return vec

    def expectation(self, M: np.ndarray, basis: dict | str = "z") -> Fraction:
        vec = self.state_vector(basis)
        norm = int(vec @ vec)
        return Fraction(int(vec @ (M @ vec)), norm)


def space_for(ops, extra_sites=()) -> DenseSpace:
    sites = set(extra_sites)
    for op in ops:
        sites |= set(support(op))
    return DenseSpace(sites)


class ColumnOracle:
    """Basis-column action (permutation + sign per column) for larger systems.

    Gates act by their truth tables on all 2^n basis indices at once; this
    evaluates the same dense matrices column by column without storing
    them.  Still independent of the symbolic product algebra.
    """

    def __init__(self, sites):
        self.sites = sorted(sites)
        self.index = {s: i for i, s in enumerate(self.sites)}
        self.n = len(self.sites)
        if self.n > 22:
            raise ValueError("too many sites")
        self.dim = 1 << self.n

    def identity(self):
        return np.arange(self.dim, dtype=np.int64), np.ones(self.dim, dtype=np.int64)

    def apply_gate(self, kind: str, sites, perm, sign):
        """Left-multiply the current operator by one gate."""
        if kind == "X":
            mask = 0
            for s in sites:
                mask |= 1 << self.index[s]
            return perm ^ mask, sign
        if kind in ("Z", "CZ", "CCZ"):
            hit = np.ones(self.dim, dtype=bool)
            for s in sites:
                hit &= (np.arange(self.dim) >> self.index[s] & 1).astype(bool)
            flip = np.where(hit[perm], -1, 1).astype(np.int64)
            return perm, sign * flip
        if kind == "SCALAR":
            return perm, -sign
        raise ValueError(kind)

    def apply_circuit(self, circuit, perm, sign):
        """Left-multiply by the circuit unitary W_N ... W_1."""
        for layer in circuit.layers:
            for g in layer:
                perm, sign = self.apply_symop_gate(g, perm, sign)
        return perm, sign

    def apply_symop_gate(self, g: SymOp, perm, sign):
        """Left-multiply by an elementary gate given as a SymOp.

        Only accepts single-monomial diagonals, single X flips, or scalars,
        so the truth-table semantics stays gate-level.
        """
        if not g.flips and len(g.poly) == 1:
            (mono,) = g.poly
            if not mono:
                return self.apply_gate("SCALAR", (), perm, sign)
            return self.apply_gate("Z", tuple(mono), perm, sign)
        if not g.poly and len(g.flips) >= 1:
            return self.apply_gate("X", tuple(g.flips), perm, sign)
        if not g.poly and not g.flips:
            return perm, sign
        # split a composite gate: diagonal part then flips (D * X order)
        perm, sign = self.apply_gate("X", tuple(g.flips), perm, sign)
        for mono in g.poly:
            if mono:
                perm, sign = self.apply_gate("Z", tuple(mono), perm, sign)
            else:
                perm, sign = self.apply_gate("SCALAR", (), perm, sign)
        return perm, sign

    def to_perm_sign(self, op: SymOp):
        """Render a SymOp by evaluating its data per basis state."""
        mask = 0
        for s in op.flips:
            mask |= 1 << self.index[s]
        idx = np.arange(self.dim, dtype=np.int64)
        out = idx ^ mask
        val = np.zeros(self.dim, dtype=np.int64)
        for mono in op.poly:
            if not mono:
                val ^= 1
                continue
            hit = np.ones(self.dim, dtype=np.int64)
            for s in mono:
                hit &= out >> self.index[s] & 1
            val ^= hit
        return out, np.where(val, -1, 1).astype(np.int64)

    @staticmethod
    def compose(first_perm, first_sign, then_perm, then_sign):
        """Operator product (then o first) acting on columns: M2 @ M1."""
        return then_perm[first_perm], first_sign * then_sign[first_perm]

    @staticmethod
    def inverse(perm, sign):
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm), dtype=np.int64)
        return inv, sign[inv]
