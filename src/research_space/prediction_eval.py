"""Transition detection, density-based candidate ranking, per-entity AUROC,
and evaluation summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .errors import ConfigError
from .presence import EntityFieldMatrix
from .specialization import TransitionKind, indicator, stage_codes


@dataclass(frozen=True)
class TransitionEvent:
    entity_id: str
    field_id: str
    kind: TransitionKind


@dataclass
class RankedPrediction:
    """Candidate fields ranked by density, descending; ties broken by
    ascending field_id."""

    entity_id: str
    items: list[tuple[str, float]]


@dataclass(frozen=True)
class AurocResult:
    entity_id: str
    auroc: float
    n_pos: int
    n_neg: int


@dataclass
class EvalSummary:
    mean: float
    median: float
    q1: float
    q3: float
    n: int
    p_value: float | None = None


# Source stage code and lowest realized stage code per transition kind.
_TRANSITION_CODES = {
    TransitionKind.ZERO_TO_ACTIVE: (0, 1),
    TransitionKind.NASCENT_TO_DEVELOPED: (1, 3),
    TransitionKind.INTERMEDIATE_TO_DEVELOPED: (2, 3),
}


def _candidates(r_before: EntityFieldMatrix, kind: TransitionKind, full_u_zero: bool):
    """Entity x field mask of the fields ranked for one transition kind."""
    if full_u_zero:
        return indicator(r_before, kind).values == 0
    return stage_codes(r_before.values) == _TRANSITION_CODES[kind][0]


def _masks(r_before: EntityFieldMatrix, r_after: EntityFieldMatrix,
           kind: TransitionKind, full_u_zero: bool = False):
    """Candidate and realized-transition masks on r_before's entity axis;
    every realized transition is a candidate.

    Entities missing from r_after count as all-zero rows there.
    """
    if r_before.field_ids != r_after.field_ids:
        raise ConfigError("RCA matrices use different field sets")
    _, rows, after_rows = np.intersect1d(r_before.entity_ids, r_after.entity_ids,
                                         assume_unique=True, return_indices=True)
    after = np.zeros_like(r_before.values)
    after[rows] = r_after.values[after_rows]
    source, target = _TRANSITION_CODES[kind]
    realized = ((stage_codes(r_before.values) == source)
                & (stage_codes(after) >= target))
    return _candidates(r_before, kind, full_u_zero), realized


def detect_transitions(r_before: EntityFieldMatrix, r_after: EntityFieldMatrix,
                       kind: TransitionKind) -> list[TransitionEvent]:
    """Realized transitions between the RCA window and the test window.

    Entities absent from one matrix are treated as all-zero rows in it.
    """
    known = set(r_before.entity_ids)
    extra = [e for e in r_after.entity_ids if e not in known]
    union = EntityFieldMatrix(np.pad(r_before.values, ((0, len(extra)), (0, 0))),
                              r_before.entity_ids + extra, r_before.field_ids,
                              r_before.window)
    _, realized = _masks(union, r_after, kind)
    return [TransitionEvent(union.entity_ids[i], union.field_ids[j], kind)
            for i, j in zip(*np.nonzero(realized))]


def _check_aligned(omega: EntityFieldMatrix, r_before: EntityFieldMatrix):
    if omega.entity_ids != r_before.entity_ids or omega.field_ids != r_before.field_ids:
        raise ConfigError("density and RCA matrices are not aligned")


def rank_candidates(omega: EntityFieldMatrix, r_before: EntityFieldMatrix,
                    kind: TransitionKind,
                    full_u_zero: bool = False) -> list[RankedPrediction]:
    """Per-entity ranking of candidate fields by density.

    By default candidates are the fields in the transition's source stage;
    full_u_zero ranks every field with U = 0 instead.
    """
    _check_aligned(omega, r_before)
    out = []
    cand = _candidates(r_before, kind, full_u_zero)
    for eid, scores, keep in zip(omega.entity_ids, omega.values, cand):
        items = [(omega.field_ids[j], float(scores[j])) for j in np.flatnonzero(keep)]
        items.sort(key=lambda kv: (-kv[1], kv[0]))
        out.append(RankedPrediction(entity_id=eid, items=items))
    return out


def _auroc_rows(scores, cand, pos):
    """Row-wise Mann-Whitney AUROC of the positive candidates against the
    other candidates, from midranks (ties count 0.5 per pair).

    Returns (auroc, n_pos, n_neg); auroc is NaN where a row lacks a positive
    or a negative candidate.
    """
    ranks = rankdata(np.where(cand, scores, np.nan), axis=1, nan_policy="omit")
    n_pos = pos.sum(axis=1)
    n_neg = cand.sum(axis=1) - n_pos
    u_stat = np.where(pos, ranks, 0.0).sum(axis=1) - n_pos * (n_pos + 1) / 2.0
    pairs = n_pos * n_neg
    auc = np.divide(u_stat, pairs, out=np.full(len(pairs), np.nan), where=pairs > 0)
    return auc, n_pos, n_neg


def auroc(ranked: RankedPrediction, positives: set[str]) -> AurocResult | None:
    """Mann-Whitney AUROC from the candidate scores; ties count 0.5 per pair.

    Returns None when there is no positive or no negative candidate.
    """
    fields = [f for f, _ in ranked.items]
    if not positives <= set(fields):
        raise ConfigError("positives are not a subset of the candidate set")
    scores = np.array([[s for _, s in ranked.items]], dtype=np.float64)
    pos = np.array([[f in positives for f in fields]], dtype=bool)
    auc, n_pos, n_neg = _auroc_rows(scores, np.ones_like(pos), pos)
    if np.isnan(auc[0]):
        return None
    return AurocResult(ranked.entity_id, float(auc[0]), int(n_pos[0]), int(n_neg[0]))


def evaluate_transition(omega: EntityFieldMatrix, r_before: EntityFieldMatrix,
                        r_after: EntityFieldMatrix, kind: TransitionKind,
                        full_u_zero: bool = False) -> tuple[list[AurocResult], int]:
    """Per-entity AUROC for one transition kind.

    Entities of r_before without both a positive and a negative candidate are
    excluded; the second return value counts them.
    """
    _check_aligned(omega, r_before)
    cand, realized = _masks(r_before, r_after, kind, full_u_zero)
    auc, n_pos, n_neg = _auroc_rows(omega.values, cand, realized)
    results = [
        AurocResult(omega.entity_ids[i], float(auc[i]), int(n_pos[i]), int(n_neg[i]))
        for i in np.flatnonzero(~np.isnan(auc))
    ]
    return results, len(omega.entity_ids) - len(results)


def summarize(results: list[AurocResult],
              p_value: float | None = None) -> EvalSummary:
    if not results:
        raise ConfigError("cannot summarize an empty result list")
    vals = np.array([r.auroc for r in results])
    q1, med, q3 = np.quantile(vals, [0.25, 0.5, 0.75])  # linear interpolation
    return EvalSummary(
        mean=float(vals.mean()),
        median=float(med),
        q1=float(q1),
        q3=float(q3),
        n=len(vals),
        p_value=p_value,
    )


def compare_models(a: list[AurocResult], b: list[AurocResult],
                   n_permutations: int = 10000, seed: int = 0) -> float:
    """Two-sided seeded permutation test on the difference of mean AUROC."""
    if n_permutations < 100:
        raise ConfigError("n_permutations must be >= 100")
    if not a or not b:
        raise ConfigError("both result lists must be non-empty")
    xa = np.array([r.auroc for r in a])
    xb = np.array([r.auroc for r in b])
    observed = abs(xa.mean() - xb.mean())
    pooled = np.concatenate([xa, xb])
    rng = np.random.default_rng(seed)
    n_a = len(xa)
    count = 0
    for _ in range(n_permutations):
        perm = rng.permutation(pooled)
        if abs(perm[:n_a].mean() - perm[n_a:].mean()) >= observed:
            count += 1
    return (count + 1) / (n_permutations + 1)


def cv_sliding(covariate, values, window_size):
    """Coefficient of variation over sliding windows of the covariate order.

    Returns (points, n_skipped) where points are (covariate midpoint, CV)
    and windows with zero mean are skipped.
    """
    covariate = np.asarray(covariate, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if window_size > n:
        raise ConfigError("window_size exceeds sample size")
    order = np.argsort(covariate, kind="stable")
    cov = covariate[order]
    val = values[order]
    points = []
    skipped = 0
    for i in range(n - window_size + 1):
        w = val[i:i + window_size]
        mean = w.mean()
        if mean == 0:
            skipped += 1
            continue
        sd = w.std(ddof=1) if window_size > 1 else 0.0
        mid = (cov[i] + cov[i + window_size - 1]) / 2.0
        points.append((float(mid), float(sd / mean)))
    return points, skipped


def ccdf(values):
    """Complementary CDF P(X >= x) at each distinct observed value."""
    vals = np.sort(np.asarray(values, dtype=np.float64))
    n = len(vals)
    if n == 0:
        return []
    uniq, first_idx = np.unique(vals, return_index=True)
    return [(float(x), float((n - i) / n)) for x, i in zip(uniq, first_idx)]
