"""Density-based candidate ranking, per-entity AUROC and evaluation
summaries, as arrays on the density matrix's entity axis."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .specialization import TRANSITIONS, TransitionKind, indicator, stage_codes

# Fewest permutations compare_models accepts.
MIN_PERMUTATIONS = 100
# Most random signs compare_models draws at once.
SIGN_BLOCK = 1 << 16


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


def rank_candidates(omega: np.ndarray, cand, field_ids):
    """Candidate fields of every entity ranked by density.

    cand is an entity x field mask on omega's axes, from candidate_mask, and
    field_ids names omega's columns. Returns (order, n_candidates): row i's
    candidates are the field indices order[i, :n_candidates[i]], by
    descending density with ties broken by ascending field_id.
    """
    # ties sort by field_id, whose order need not be the column order
    position = {f: i for i, f in enumerate(sorted(field_ids))}
    id_rank = np.array([position[f] for f in field_ids])
    key = np.where(cand, -omega, np.inf)
    order = np.lexsort((np.broadcast_to(id_rank, key.shape), key), axis=-1)
    return order, cand.sum(axis=1)


def _midranks(a):
    """Row-wise 1-based ranks of a 2-D float array, tied values sharing the
    mean of their ranks; NaN entries are left out and stay NaN."""
    order = np.argsort(a, axis=1, kind="stable")  # NaN sorts last
    s = np.take_along_axis(a, order, axis=1)
    n = a.shape[1]
    pos = np.broadcast_to(np.arange(n), a.shape)
    first = np.ones(a.shape, dtype=bool)  # starts a tie group
    first[:, 1:] = s[:, 1:] != s[:, :-1]
    last = np.ones(a.shape, dtype=bool)  # ends a tie group
    last[:, :-1] = first[:, 1:]
    start = np.maximum.accumulate(np.where(first, pos, 0), axis=1)
    end = np.minimum.accumulate(np.where(last, pos, n)[:, ::-1], axis=1)[:, ::-1]
    mid = np.where(np.isnan(s), np.nan, (start + end + 2) / 2.0)
    ranks = np.empty_like(mid)
    np.put_along_axis(ranks, order, mid, axis=1)
    return ranks


def auroc(scores, cand, pos):
    """Row-wise Mann-Whitney AUROC of the positive candidates against the
    other candidates, from midranks (ties count 0.5 per pair).

    Returns (auroc, n_pos, n_neg); auroc is NaN where a row lacks a positive
    or a negative candidate.
    """
    if (pos & ~cand).any():
        raise ConfigError("positives are not a subset of the candidate set")
    ranks = _midranks(np.where(cand, scores, np.nan))
    n_pos = pos.sum(axis=1)
    n_neg = cand.sum(axis=1) - n_pos
    u_stat = np.where(pos, ranks, 0.0).sum(axis=1) - n_pos * (n_pos + 1) / 2.0
    pairs = n_pos * n_neg
    auc = np.divide(u_stat, pairs, out=np.full(len(pairs), np.nan), where=pairs > 0)
    return auc, n_pos, n_neg


def summarize(values) -> dict:
    """Mean, median, quartiles and count of a non-empty array of AUROCs."""
    vals = np.asarray(values, dtype=np.float64)
    if not len(vals):
        raise ConfigError("cannot summarize an empty result list")
    q1, med, q3 = _quartiles(np.sort(vals))
    return {"mean": float(vals.mean()), "median": med, "q1": q1, "q3": q3,
            "n": len(vals)}


def _quartiles(s):
    """Quartiles of a sorted non-empty array, interpolated as np.quantile's
    default linear method does it, bit for bit on non-negative finite values
    such as AUROCs, without np.quantile's load of numpy.ma."""
    n = len(s)
    result = []
    for q in (0.25, 0.5, 0.75):
        virtual = (n - 1) * q
        i = int(virtual)
        gamma = virtual - i
        a, b = float(s[i]), float(s[min(i + 1, n - 1)])
        diff = b - a
        result.append(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)
    return result


def compare_models(a, b, n_permutations: int = 10000, seed: int = 0) -> float:
    """Two-sided seeded paired sign-flip test on the mean AUROC difference.

    a and b score the same entities in the same order. Each permutation
    flips the sign of each entity's difference a - b with probability 1/2;
    the p-value is (count + 1) / (n_permutations + 1), count being the
    permutations whose |sum of differences| reaches the observed one.
    """
    if n_permutations < MIN_PERMUTATIONS:
        raise ConfigError(f"n_permutations must be >= {MIN_PERMUTATIONS}")
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if len(xa) != len(xb):
        raise ConfigError(f"paired result lists differ in length: {len(xa)} and {len(xb)}")
    if not len(xa):
        raise ConfigError("both result lists must be non-empty")
    if not (np.isfinite(xa).all() and np.isfinite(xb).all()):
        raise ConfigError("result lists hold non-finite values")
    d = xa - xb
    total = d.sum()
    # sums that are equal in exact arithmetic may differ in the last bits
    observed = abs(total) - 1e-9 * np.abs(d).sum()
    rng = np.random.default_rng(seed)
    block = max(1, SIGN_BLOCK // len(d))
    count = 0
    for done in range(0, n_permutations, block):
        m = min(block, n_permutations - done)
        flip = np.unpackbits(rng.integers(0, 256, (m, -(-len(d) // 8)), dtype=np.uint8),
                             axis=1, count=len(d))
        # flipping the differences with bit 1 turns the sum into total - 2 * theirs
        count += np.count_nonzero(np.abs(total - 2.0 * (flip @ d)) >= observed)
    return (count + 1) / (n_permutations + 1)


def ccdf(values):
    """Complementary CDF P(X >= x) at each distinct observed value."""
    vals = np.sort(np.asarray(values, dtype=np.float64))
    n = len(vals)
    if n == 0:
        return []
    uniq, first_idx = np.unique(vals, return_index=True)
    return [(float(x), float((n - i) / n)) for x, i in zip(uniq, first_idx)]
