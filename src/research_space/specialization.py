"""Revealed comparative advantage, development stages, transition indicator
matrices, and relatedness densities."""

from __future__ import annotations

import enum

import numpy as np

from .errors import ConfigError
from .freq_model import ProximityMatrix
from .presence import EntityFieldMatrix


class Stage(enum.Enum):
    INACTIVE = "0"
    NASCENT = "N"
    INTERMEDIATE = "I"
    DEVELOPED = "D"


class TransitionKind(enum.Enum):
    ZERO_TO_ACTIVE = "0A"
    NASCENT_TO_DEVELOPED = "ND"
    INTERMEDIATE_TO_DEVELOPED = "ID"


def rca(x: EntityFieldMatrix) -> EntityFieldMatrix:
    """Balassa index: the entity's share of its own output in f over the
    global share of f. Zero-mass entities yield all-zero rows."""
    dense = np.asarray(x.values.todense(), dtype=np.float64)
    total = dense.sum()
    if total <= 0:
        raise ConfigError("total corpus mass is zero")
    row_sums = dense.sum(axis=1, keepdims=True)
    field_share = dense.sum(axis=0) / total  # global share per field
    out = np.zeros_like(dense)
    nz_rows = row_sums[:, 0] > 0
    nz_fields = field_share > 0
    out[np.ix_(nz_rows, nz_fields)] = (
        dense[np.ix_(nz_rows, nz_fields)] / row_sums[nz_rows]
    ) / field_share[nz_fields]
    return EntityFieldMatrix(out, x.entity_ids, x.field_ids, x.window)


def stage_codes(values) -> np.ndarray:
    """int8 stage codes of RCA values, in Stage order: 0 Inactive (RCA 0),
    1 Nascent (0 < RCA < 0.5), 2 Intermediate (0.5 <= RCA < 1), 3 Developed
    (RCA >= 1)."""
    v = np.asarray(values)
    return (v > 0).astype(np.int8) + (v >= 0.5) + (v >= 1.0)


_STAGE_LETTERS = np.array([s.value for s in Stage])


def classify_stage(rca_value: float) -> Stage:
    if rca_value < 0:
        raise ValueError(f"RCA must be non-negative, got {rca_value}")
    return list(Stage)[int(stage_codes(rca_value))]


def stage_matrix(r: EntityFieldMatrix) -> np.ndarray:
    """Entity x field array of single-letter stage codes."""
    return _STAGE_LETTERS[stage_codes(r.values)]


def indicator(r: EntityFieldMatrix, kind: TransitionKind) -> EntityFieldMatrix:
    """U_sf = 1[RCA > 0] for 0->A, 1[RCA > 1] for transitions to Developed."""
    if kind is TransitionKind.ZERO_TO_ACTIVE:
        u = (r.values > 0).astype(np.int8)
    else:
        u = (r.values > 1).astype(np.int8)
    return EntityFieldMatrix(u, r.entity_ids, r.field_ids, r.window)


def density(u: EntityFieldMatrix, phi: ProximityMatrix) -> EntityFieldMatrix:
    """omega_sf = sum_f' U_sf' phi_ff' / sum_f' phi_ff'.

    The sum over f' includes f' = f, per the definition; rows of phi with
    zero total weight (isolated fields) yield omega = 0.
    """
    if u.field_ids != phi.field_ids:
        raise ConfigError("indicator and proximity matrices use different field sets")
    row_sums = phi.values.sum(axis=1)  # per target field f
    numer = u.values.astype(np.float64) @ phi.values.T
    omega = np.zeros_like(numer)
    nz = row_sums > 0
    omega[:, nz] = numer[:, nz] / row_sums[nz]
    return EntityFieldMatrix(omega, u.entity_ids, u.field_ids, u.window)
