"""Seeded workload inputs: gate lists, their OpenQASM 2.0 text and digests.

Standard library only, so the load-generator process never imports the
program.  A gate is a tuple ``(name, qubits, params)``; controlled gates
(``cx``, ``cp``) list the control first; ``("barrier", (), ())`` is a
barrier over the whole register.  Qubit ``q`` is bit ``q`` of a basis
index (little-endian), as in the program.
"""

import hashlib
import math
import random

SINGLE = ("h", "x", "y", "z", "s", "t", "sdg", "tdg", "sx")
ROTATIONS = ("rx", "ry", "rz", "p")


def rng_for(*parts):
    """A ``random.Random`` seeded by the joined parts (hash-seed independent)."""
    return random.Random(":".join(str(part) for part in parts))


def to_qasm(num_qubits, gates):
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{num_qubits}];"]
    for name, qubits, params in gates:
        if name == "barrier":
            lines.append("barrier q;")
            continue
        args = "(" + ",".join(repr(float(p)) for p in params) + ")" if params else ""
        lines.append(f"{name}{args} " + ",".join(f"q[{q}]" for q in qubits) + ";")
    return "\n".join(lines) + "\n"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def wide_random(num_qubits, layers, rng):
    """Brickwork circuit whose state is dense after three layers.

    Every layer puts ``ry`` and ``rz`` with random angles on every qubit,
    then CNOTs on a fixed matching: partners ``n/2`` apart, then even and
    odd neighbours, in turn.  Only the angles depend on ``rng``, so every
    seed builds diagrams of the same shape and the same cost.
    """
    half = num_qubits // 2
    matchings = [
        [(q, q + half) for q in range(half)],
        [(q, q + 1) for q in range(0, num_qubits - 1, 2)],
        [(q, (q + 1) % num_qubits) for q in range(1, num_qubits - 1, 2)],
    ]
    gates = []
    for layer in range(layers):
        for qubit in range(num_qubits):
            gates.append(("ry", (qubit,), (rng.uniform(0.0, 2.0 * math.pi),)))
            gates.append(("rz", (qubit,), (rng.uniform(0.0, 2.0 * math.pi),)))
        for pair in matchings[layer % len(matchings)]:
            gates.append(("cx", pair, ()))
    return gates


def random_gates(num_qubits, depth, rng, two_qubit_probability=0.3):
    """One random gate per layer: a CNOT, a fixed gate or a rotation."""
    gates = []
    for _ in range(depth):
        qubit = rng.randrange(num_qubits)
        if rng.random() < two_qubit_probability:
            other = rng.randrange(num_qubits - 1)
            other += other >= qubit
            gates.append(("cx", (qubit, other), ()))
        elif rng.random() < 0.5:
            gates.append((rng.choice(SINGLE), (qubit,), ()))
        else:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            gates.append((rng.choice(ROTATIONS), (qubit,), (angle,)))
    return gates


def qft(num_qubits):
    """The QFT of paper Fig. 5(a): H and controlled phases, then SWAPs."""
    gates = []
    for target in range(num_qubits - 1, -1, -1):
        gates.append(("h", (target,), ()))
        for control in range(target - 1, -1, -1):
            gates.append(("cp", (control, target), (math.pi / 2 ** (target - control),)))
    for low in range(num_qubits // 2):
        gates.append(("swap", (low, num_qubits - 1 - low), ()))
    return gates


def qft_compiled(num_qubits):
    """The compiled QFT of paper Fig. 5(b), a barrier after each abstract gate.

    ``cp(l) c,t -> p(l/2) c; cx c,t; p(-l/2) t; cx c,t; p(l/2) t`` and
    ``swap a,b -> cx a,b; cx b,a; cx a,b``.  The barriers are the
    breakpoints the alternating check of paper Ex. 12 steps to.
    """
    gates = []
    for name, qubits, params in qft(num_qubits):
        if name == "cp":
            (lam,) = params
            control, target = qubits
            gates += [
                ("p", (control,), (lam / 2.0,)),
                ("cx", (control, target), ()),
                ("p", (target,), (-lam / 2.0,)),
                ("cx", (control, target), ()),
                ("p", (target,), (lam / 2.0,)),
            ]
        elif name == "swap":
            high, low = qubits
            gates += [("cx", (high, low), ()), ("cx", (low, high), ()), ("cx", (high, low), ())]
        else:
            gates.append((name, qubits, params))
        gates.append(("barrier", (), ()))
    return gates


def perturb_phase(gates, rng, among_last=16):
    """A copy with one of the last ``among_last`` ``p`` angles shifted by
    0.05 to 0.5 radians.  A late mismatch keeps the alternating check's
    diagrams small; an early one can grow them by orders of magnitude."""
    phases = [index for index, gate in enumerate(gates) if gate[0] == "p"]
    index = rng.choice(phases[-among_last:])
    name, qubits, (lam,) = gates[index]
    shifted = list(gates)
    shifted[index] = (name, qubits, (lam + rng.uniform(0.05, 0.5),))
    return shifted


def blocked_bell_pairs(num_qubits, rng):
    """Entangled pairs ``(i + n/2, i)``: n/2 levels apart, so the DD is
    exponential in n under the identity order and linear after sifting.
    Each pair gets its own ``ry`` angle, so amplitudes differ between seeds
    while the diagram's shape does not."""
    half = num_qubits // 2
    gates = []
    for index in range(half):
        gates.append(("ry", (index + half,), (rng.uniform(0.4, 2.7),)))
        gates.append(("cx", (index + half, index), ()))
    return gates
