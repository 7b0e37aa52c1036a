"""Reference forms kept for tests only: derived circuits and operator
queries the package does not need, and eta's routes as the suffix-by-suffix
recursion with every layer paired at both truncation radii, the oracle for
the Horner form and the one-radius fast path of anomalion.pairing."""

from __future__ import annotations

from anomalion.circuits import Layer, ProceduralCircuit, conj_by_circuit
from anomalion.lattice import Region
from anomalion.pairing import (
    LocalizedAutomorphism,
    StabilizationError,
    _truncate_layer_to_disk,
)
from anomalion.symop import SymOp, op_inv, op_mul, region_mask, support_mask


def constant_term(a: SymOp) -> int:
    """f(0), i.e. 1 if the empty monomial is present else 0."""
    return 1 if frozenset() in a.poly else 0


def suffix_circuit(c: ProceduralCircuit, start: int) -> ProceduralCircuit:
    """The layers of c from position start on."""
    return ProceduralCircuit(tuple(c.instantiate()[start:]), c.window)


def truncate_rest(c: ProceduralCircuit, region: Region) -> ProceduralCircuit:
    """The gates truncate() drops, as a circuit (straddlers included)."""
    layers = c.instantiate()
    outside = ~region_mask(region)
    return ProceduralCircuit(
        tuple(Layer(g for g in layer if support_mask(g) & outside) for layer in layers), c.window
    )


def eta_two_radii(layer: Layer, window, pair) -> SymOp:
    """pair of the layer truncated to disks r and r+2, always both."""
    r2 = window.edge_distance((0, 0))
    if r2 < 4:
        raise StabilizationError("window too small to stabilize the pairing")
    vals = [pair(_truncate_layer_to_disk(layer, radius)) for radius in (r2 - 2, r2)]
    if vals[0] != vals[1]:
        raise StabilizationError("eta did not stabilize between radii; margin too small")
    return vals[0]


def eta_R_suffix(alpha: LocalizedAutomorphism, b_circuit: ProceduralCircuit) -> SymOp:
    """eta(A, F(k..)) = eta(A, F(k+1..)) * phi(F(k+1..))(eta(A, layer_k)),
    conjugating each piece through the whole suffix after it."""
    layers = b_circuit.instantiate()
    acc = None
    for k in range(len(layers) - 1, -1, -1):
        piece = eta_two_radii(layers[k], b_circuit.window, lambda b: op_mul(alpha.apply(b), op_inv(b)))
        if acc is None:
            acc = piece
        else:
            rest = suffix_circuit(b_circuit, k + 1)
            acc = op_mul(acc, conj_by_circuit(piece, rest, check_margin=False))
    return SymOp.identity() if acc is None else acc


def eta_L_suffix(a_circuit: ProceduralCircuit, beta: LocalizedAutomorphism) -> SymOp:
    """eta(F(k..), B) = phi(F(k+1..))(eta(layer_k, B)) * eta(F(k+1..), B)."""
    layers = a_circuit.instantiate()
    acc = None
    for k in range(len(layers) - 1, -1, -1):
        piece = eta_two_radii(layers[k], a_circuit.window, lambda a: op_mul(a, beta.apply(op_inv(a))))
        if acc is None:
            acc = piece
        else:
            rest = suffix_circuit(a_circuit, k + 1)
            acc = op_mul(conj_by_circuit(piece, rest, check_margin=False), acc)
    return SymOp.identity() if acc is None else acc
