"""Answers the benchmark checks program outputs against, computed without grothq."""

from collections import deque

import numpy as np


def support_has_cycle(theta):
    """True iff the bipartite graph of the nonzero entries (row i, column j) has a cycle."""
    theta = np.asarray(theta)
    n_rows = theta.shape[0]
    rows, cols = np.nonzero(theta)
    parent = list(range(n_rows + theta.shape[1]))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in zip(rows, cols):
        a, b = find(int(i)), find(n_rows + int(j))
        if a == b:
            return True
        parent[a] = b
    return False


def phases_consistent(theta, tol=1e-9):
    """Decide arg theta_ij = chi_i + psi_j (mod 2 pi) over the nonzero entries.

    Phases are fixed along a BFS spanning forest of the bipartite support
    graph; the system is solvable iff every remaining edge then agrees modulo
    2 pi within ``tol``.
    """
    theta = np.asarray(theta, dtype=complex)
    n_rows, n_cols = theta.shape
    rows, cols = np.nonzero(theta)
    angle = np.angle(theta)
    adj = [[] for _ in range(n_rows + n_cols)]
    for i, j in zip(rows, cols):
        adj[i].append(n_rows + j)
        adj[n_rows + j].append(i)
    value = [None] * (n_rows + n_cols)
    for root in range(n_rows + n_cols):
        if value[root] is not None:
            continue
        value[root] = 0.0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if value[v] is None:
                    i, j = (u, v - n_rows) if u < n_rows else (v, u - n_rows)
                    value[v] = angle[i, j] - value[u]
                    queue.append(v)
    for i, j in zip(rows, cols):
        gap = value[i] + value[n_rows + j] - angle[i, j]
        if abs(np.angle(np.exp(1j * gap))) > tol:
            return False
    return True


def witness_matches(theta, chi, psi, tol=1e-8):
    """True iff chi_i + psi_j equals arg theta_ij modulo 2 pi on the support."""
    theta = np.asarray(theta, dtype=complex)
    rows, cols = np.nonzero(theta)
    gap = np.asarray(chi)[rows] + np.asarray(psi)[cols] - np.angle(theta[rows, cols])
    return bool(np.all(np.abs(np.angle(np.exp(1j * gap))) <= tol))
