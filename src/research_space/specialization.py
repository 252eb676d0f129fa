"""Revealed comparative advantage, development stages, transition indicators,
candidate and realized masks, and relatedness densities."""

from __future__ import annotations

import enum

import numpy as np

from .errors import ConfigError


class TransitionKind(enum.Enum):
    ZERO_TO_ACTIVE = "0A"
    NASCENT_TO_DEVELOPED = "ND"
    INTERMEDIATE_TO_DEVELOPED = "ID"


# Per transition kind: the RCA above which U_sf = 1, the source stage code
# whose fields are ranked, and the lowest stage code that realizes it.
TRANSITIONS = {
    TransitionKind.ZERO_TO_ACTIVE: (0.0, 0, 1),
    TransitionKind.NASCENT_TO_DEVELOPED: (1.0, 1, 3),
    TransitionKind.INTERMEDIATE_TO_DEVELOPED: (1.0, 2, 3),
}


def rca(dense: np.ndarray) -> np.ndarray:
    """Balassa index of an X array: the entity's share of its own output in f
    over the global share of f. Zero-mass entities yield all-zero rows."""
    total = dense.sum()
    if total <= 0:
        raise ConfigError("total corpus mass is zero")
    row_sums = dense.sum(axis=1, keepdims=True)
    field_share = dense.sum(axis=0) / total  # global share per field
    keep = (row_sums > 0) & (field_share > 0)
    out = np.divide(dense, row_sums, out=np.zeros_like(dense), where=keep)
    return np.divide(out, field_share, out=out, where=keep)


def stage_codes(values) -> np.ndarray:
    """int8 stage codes of RCA values, the one definition of the stages:
    0 Inactive (RCA 0), 1 Nascent (0 < RCA < 0.5), 2 Intermediate
    (0.5 <= RCA < 1), 3 Developed (RCA >= 1)."""
    v = np.asarray(values)
    return (v > 0).astype(np.int8) + (v >= 0.5) + (v >= 1.0)


def indicator(r: np.ndarray, kind: TransitionKind) -> np.ndarray:
    """U_sf = 1[RCA > 0] for 0->A, 1[RCA > 1] for transitions to Developed."""
    return (r > TRANSITIONS[kind][0]).astype(np.int8)


def candidate_mask(r: np.ndarray, kind: TransitionKind, full_u_zero=False):
    """Entity x field mask, on the RCA array's axes, of the fields ranked for
    one transition kind: those in its source stage, or with full_u_zero every
    field with U = 0."""
    if full_u_zero:
        return indicator(r, kind) == 0
    return stage_codes(r) == TRANSITIONS[kind][1]


def realized_mask(r_before: np.ndarray, r_after: np.ndarray, kind: TransitionKind):
    """Entity x field mask of the fields that went from the source stage in
    r_before to the target stage or above in r_after, two RCA arrays on the
    same axes; every realized transition is a candidate."""
    _, source, target = TRANSITIONS[kind]
    return (stage_codes(r_before) == source) & (stage_codes(r_after) >= target)


def density(u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """omega_sf = sum_f' U_sf' phi_ff' / sum_f' phi_ff', for an indicator
    array and the values of a proximity matrix on the same fields.

    The sum over f' includes f' = f, per the definition; rows of phi with
    zero total weight (isolated fields) yield omega = 0.
    """
    row_sums = phi.sum(axis=1)  # per target field f
    numer = u.astype(np.float64) @ phi.T
    return np.divide(numer, row_sums, out=np.zeros_like(numer), where=row_sums > 0)
