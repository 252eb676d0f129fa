"""Frequentist proximity: co-presence counts normalized into conditional
co-publication probabilities."""

from __future__ import annotations

import numpy as np

_BLOCK_ROWS = 4096  # rows of P per float64 block in copresence


def copresence(p: np.ndarray) -> np.ndarray:
    """M_ff' = number of entities present in both f and f' (int64, symmetric,
    M_ff = number of entities present in f), in P's column order. The
    float64 block products are integers below 2**53, so the sum is exact."""
    m = np.zeros((p.shape[1],) * 2)
    for start in range(0, len(p), _BLOCK_ROWS):
        pb = p[start:start + _BLOCK_ROWS].astype(np.float64)
        m += pb.T @ pb
    return m.astype(np.int64)


def proximity_freq(m: np.ndarray) -> np.ndarray:
    """phi_ff' = M_ff' / M_f'f', M's diagonal counting the entities present
    in each field; columns with no present entity are 0 by convention."""
    counts = np.diag(m)
    return np.divide(m, counts, out=np.zeros(m.shape), where=counts > 0)
