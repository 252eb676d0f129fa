"""Frequentist proximity: co-presence counts normalized into conditional
co-publication probabilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .presence import EntityFieldMatrix, TimeWindow


@dataclass
class ProximityMatrix:
    """Field x field relatedness weights in [0, 1].

    Frequentist weights are column-conditional probabilities and generally
    asymmetric; embedding weights are symmetric clipped cosines.
    """

    values: np.ndarray
    field_ids: list[str]
    model_tag: str  # "frequentist" | "embedding"
    window: TimeWindow

    @property
    def is_symmetric(self) -> bool:
        return self.model_tag == "embedding"


def copresence(p: EntityFieldMatrix) -> np.ndarray:
    """M_ff' = number of entities present in both f and f' (int64, symmetric,
    M_ff = number of entities present in f), in ``p.field_ids`` order."""
    pb = p.values.astype(np.int64)
    return (pb.T @ pb).toarray()


def proximity_freq(m: np.ndarray, p: EntityFieldMatrix) -> ProximityMatrix:
    """phi_ff' = M_ff' / (number of entities present in f'); columns with no
    present entity are 0 by convention."""
    counts = np.asarray(p.values.sum(axis=0)).ravel().astype(np.float64)
    phi = np.zeros_like(m, dtype=np.float64)
    nonzero = counts > 0
    phi[:, nonzero] = m[:, nonzero] / counts[nonzero]
    return ProximityMatrix(
        values=phi,
        field_ids=list(p.field_ids),
        model_tag="frequentist",
        window=p.window,
    )
