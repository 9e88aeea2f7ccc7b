"""The references shared by several test modules: frozen matrices, the
seeded start draw and the phase-split oracle."""

import numpy as np

from grothq import PhaseSystemReport
from grothq.forms import PHASE_TOL

W3 = np.exp(2j * np.pi / 3)


def golden_family_d3():
    s = 1 / np.sqrt(2)
    return s * np.array([
        [1, 1, 0], [1, 0, 1], [0, 1, 1],
        [1, -1, 0], [1, 0, -1], [0, 1, -1],
    ], dtype=complex)


def golden_projector_d3():
    return np.array([
        [2, 1, 1, 0, 1, 1],
        [1, 2, 1, 1, 0, -1],
        [1, 1, 2, -1, -1, 0],
        [0, 1, -1, 2, 1, -1],
        [1, 0, -1, 1, 2, 1],
        [1, -1, 0, -1, 1, 2],
    ], dtype=complex) / 4


def golden_projector_d4():
    w = W3
    rows = [
        [3, 0, 0, 2, -w**2, -w, 2, -w, -w**2, 2, -1, -1],
        [0, 3, 0, -1, 2*w**2, -w, -w**2, -1, 2*w, -w, 2*w, -w],
        [0, 0, 3, -1, -w**2, 2*w, -w, 2*w**2, -1, -w**2, -w**2, 2*w**2],
        [2, -1, -1, 3, 0, 0, 2, -w**2, -w, 2, -w, -w**2],
        [-w, 2*w, -w, 0, 3, 0, -1, 2*w**2, -w, -w**2, -1, 2*w],
        [-w**2, -w**2, 2*w**2, 0, 0, 3, -1, -w**2, 2*w, -w, 2*w**2, -1],
        [2, -w, -w**2, 2, -1, -1, 3, 0, 0, 2, -w**2, -w],
        [-w**2, -1, 2*w, -w, 2*w, -w, 0, 3, 0, -1, 2*w**2, -w],
        [-w, 2*w**2, -1, -w**2, -w**2, 2*w**2, 0, 0, 3, -1, -w**2, 2*w],
        [2, -w**2, -w, 2, -w, -w**2, 2, -1, -1, 3, 0, 0],
        [-1, 2*w**2, -w, -w**2, -1, 2*w, -w, 2*w, -w, 0, 3, 0],
        [-1, -w**2, 2*w, -w, 2*w**2, -1, -w**2, -w**2, 2*w**2, 0, 0, 3],
    ]
    return np.array(rows, dtype=complex) / 9


def fresh_starts(seed, starts, d):
    """The seeded starts of ``forms._seeded_starts``, each drawn by fresh
    generators: the (starts, d) phases exp(i a), a uniform on [-pi, pi) from
    ``default_rng(seed ^ s)``, and the (2, d, starts, d) vector block with
    x = r[0] + i r[1] and y = r[2] + i r[3] of start s at ``[:, :, s]``, r the
    standard normal (4, d, d) draw of another ``default_rng(seed ^ s)``."""
    phases = np.empty((starts, d), dtype=complex)
    block = np.empty((2, d, starts, d), dtype=complex)
    for s in range(starts):
        phases[s] = np.exp(1j * np.random.default_rng(seed ^ s).uniform(-np.pi, np.pi, d))
        r = np.random.default_rng(seed ^ s).standard_normal((4, d, d))
        block[0, :, s], block[1, :, s] = r[0] + 1j * r[1], r[2] + 1j * r[3]
    return phases, block


def reference_phase_report(theta):
    """``phase_system_solvable(theta).to_dict()`` from a full BFS and a
    vectorized edge check, on every support, dense ones included: the
    reference that both phase paths must match bit for bit."""
    a = np.asarray(theta, dtype=complex)
    d = a.shape[0]
    rows, cols = np.nonzero(a)
    phi = np.angle(a[rows, cols])
    adj = [[] for _ in range(2 * d)]
    for i, j, p in zip(rows.tolist(), (cols + d).tolist(), phi.tolist()):
        adj[i].append((j, p))
        adj[j].append((i, p))

    value = [None] * (2 * d)
    components = 0
    for root in range(2 * d):
        if value[root] is not None or not adj[root]:
            continue
        components += 1
        value[root] = 0.0
        queue = [root]
        for u in queue:
            for v, p in adj[u]:
                if value[v] is None:
                    value[v] = p - value[u]
                    queue.append(v)

    rank = sum(map(bool, adj)) - components
    forest = np.array([0.0 if x is None else x for x in value])
    gap = forest[rows] + forest[cols + d] - phi
    if np.any(np.abs(gap - 2.0 * np.pi * np.round(gap / (2.0 * np.pi))) > PHASE_TOL):
        return PhaseSystemReport(False, rows.size, rank, rank + 1).to_dict()
    return PhaseSystemReport(True, rows.size, rank, rank,
                             chi=forest[:d].tolist(), psi=forest[d:].tolist(),
                             used_shift_enumeration=bool(np.any(np.abs(gap) > PHASE_TOL))
                             ).to_dict()
