"""Density-based candidate ranking, per-entity AUROC and evaluation
summaries, as arrays on the density matrix's entity axis."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Fewest permutations compare_models accepts.
MIN_PERMUTATIONS = 100
# Most random signs compare_models draws at once.
SIGN_BLOCK = 1 << 16
# Positive cells whose rows of scores auroc compares at once.
AUROC_BLOCK = 1 << 14


def rank_candidates(omega: np.ndarray, cand, top: int):
    """(order, n_candidates): row i's top candidates by descending density,
    ties by ascending column, hence by field_id on the taxonomy's axis, are
    the field indices order[i, :min(top, n_candidates[i])]. cand is an
    entity x field mask on omega's axes, from candidate_mask; omega has at
    least one column."""
    key = np.where(cand, omega, -np.inf)
    n_fields = key.shape[1]
    k = min(top, n_fields)
    kth = np.partition(key, -k, axis=1)[:, [-k]]
    # every key above the k-th, then the first ties at it in column order
    above, ties = key > kth, key == kth
    missing = k - above.sum(axis=1, keepdims=True)
    # counted in the narrowest dtype that holds the field count, for speed
    seen = np.cumsum(ties, axis=1, dtype=np.min_scalar_type(n_fields))
    cols = np.nonzero(above | (ties & (seen <= missing)))[1].reshape(-1, k)
    ranked = np.argsort(-np.take_along_axis(key, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, ranked, axis=1), cand.sum(axis=1)


def auroc(scores, cand, pos):
    """Row-wise Mann-Whitney AUROC of the positive candidates against the
    other candidates, as (auroc, n_pos, n_neg); auroc is NaN where a row
    lacks a positive or a negative candidate. U counts a row's (positive,
    negative) pairs whose negative scores lower, plus 0.5 per tie: exact as
    a sum of halves. A row costs n_pos x n_fields comparisons, more than a
    sort of the row past about 13 positives. On the bench's 276
    institutions, ID with --full-candidates (at most 14 a row) took 0.28 ms
    by pair count and 4.5 ms by sort, on a 2-vCPU Xeon."""
    if (pos & ~cand).any():
        raise ConfigError("positives are not a subset of the candidate set")
    if (cand & ~np.isfinite(scores)).any():
        raise ConfigError("a candidate's score is not finite")
    n_pos = pos.sum(axis=1)
    n_neg = cand.sum(axis=1) - n_pos
    neg = cand & ~pos
    rows, cols = np.nonzero(pos)
    u_stat = np.zeros(len(n_pos))
    for start in range(0, len(rows), AUROC_BLOCK):
        r, c = rows[start:start + AUROC_BLOCK], cols[start:start + AUROC_BLOCK]
        row, s, negs = scores[r], scores[r, c][:, None], neg[r]
        wins = (np.count_nonzero(negs & (row < s), axis=1)
                + 0.5 * np.count_nonzero(negs & (row == s), axis=1))
        u_stat += np.bincount(r, weights=wins, minlength=len(n_pos))
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
    uniq, counts = np.unique(np.asarray(values, dtype=np.float64), return_counts=True)
    n = counts.sum()
    at_least = n - np.cumsum(counts) + counts
    return [(float(x), float(k / n)) for x, k in zip(uniq, at_least)]
