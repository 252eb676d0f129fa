import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from research_space.errors import ConfigError
from research_space.prediction_eval import (
    AurocResult,
    RankedPrediction,
    auroc,
    ccdf,
    compare_models,
    cv_sliding,
    detect_transitions,
    evaluate_transition,
    rank_candidates,
    summarize,
)
from research_space.presence import EntityFieldMatrix, TimeWindow
from research_space.specialization import TransitionKind

W1 = TimeWindow(2011, 2013)
W2 = TimeWindow(2014, 2016)
# RCA values on and between the stage bounds 0, 0.5 and 1.
RCA_GRID = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.5])


def rca_matrix(vals, window=W1, entity_ids=None):
    vals = np.asarray(vals, dtype=float)
    ids = entity_ids or [f"s{i}" for i in range(vals.shape[0])]
    fids = [f"F{j}" for j in range(vals.shape[1])]
    return EntityFieldMatrix(vals, ids, fids, window)


class TestDetectTransitions:
    def test_zero_to_active(self):
        before = rca_matrix([[0.0, 1.0]])
        after = rca_matrix([[0.4, 1.0]], W2)
        events = detect_transitions(before, after, TransitionKind.ZERO_TO_ACTIVE)
        assert [(e.entity_id, e.field_id) for e in events] == [("s0", "F0")]

    def test_nascent_to_developed(self):
        before = rca_matrix([[0.3, 0.3]])
        after = rca_matrix([[1.5, 0.9]], W2)
        events = detect_transitions(before, after,
                                    TransitionKind.NASCENT_TO_DEVELOPED)
        # 0.9 is not Developed after, so only F0 transitions
        assert [(e.entity_id, e.field_id) for e in events] == [("s0", "F0")]

    def test_intermediate_to_developed(self):
        before = rca_matrix([[0.6, 0.3]])
        after = rca_matrix([[1.0, 2.0]], W2)
        events = detect_transitions(before, after,
                                    TransitionKind.INTERMEDIATE_TO_DEVELOPED)
        assert [(e.entity_id, e.field_id) for e in events] == [("s0", "F0")]

    def test_entity_only_in_after(self):
        before = rca_matrix([[0.0, 1.0]])
        after = rca_matrix([[0.5, 0.5]], W2, entity_ids=["s9"])
        events = detect_transitions(before, after, TransitionKind.ZERO_TO_ACTIVE)
        assert {e.entity_id for e in events} == {"s9"}
        assert len(events) == 2

    def test_mismatched_fields_rejected(self):
        before = rca_matrix([[0.0]])
        after = rca_matrix([[0.0, 1.0]], W2)
        with pytest.raises(ConfigError):
            detect_transitions(before, after, TransitionKind.ZERO_TO_ACTIVE)


class TestRankCandidates:
    def _setup(self, rca_row, omega_row):
        r = rca_matrix([rca_row])
        omega = EntityFieldMatrix(np.array([omega_row], dtype=float), r.entity_ids,
                                  r.field_ids, W1)
        return omega, r

    def test_no_candidates(self):
        omega, r = self._setup([1.0, 2.0], [0.5, 0.5])
        ranked = rank_candidates(omega, r, TransitionKind.ZERO_TO_ACTIVE)
        assert ranked[0].items == []

    def test_tie_breaks_on_field_id(self):
        omega, r = self._setup([0.0, 0.0, 0.0, 1.5], [0.7, 0.2, 0.7, 0.9])
        ranked = rank_candidates(omega, r, TransitionKind.ZERO_TO_ACTIVE)
        assert [f for f, _ in ranked[0].items] == ["F0", "F2", "F1"]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(2)
        scores = rng.random(5).round(1)  # rounding forces some ties
        omega, r = self._setup([0.0] * 5, scores.tolist())
        ranked = rank_candidates(omega, r, TransitionKind.ZERO_TO_ACTIVE)
        expected = sorted(
            [(f"F{j}", float(scores[j])) for j in range(5)],
            key=lambda kv: (-kv[1], kv[0]),
        )
        assert ranked[0].items == expected

    def test_source_stage_restriction(self):
        omega, r = self._setup([0.0, 0.3, 0.7, 1.5], [0.1, 0.2, 0.3, 0.4])
        nd = rank_candidates(omega, r, TransitionKind.NASCENT_TO_DEVELOPED)
        assert [f for f, _ in nd[0].items] == ["F1"]
        id_ = rank_candidates(omega, r,
                              TransitionKind.INTERMEDIATE_TO_DEVELOPED)
        assert [f for f, _ in id_[0].items] == ["F2"]

    def test_full_u_zero_flag(self):
        omega, r = self._setup([0.0, 0.3, 0.7, 1.5], [0.1, 0.2, 0.3, 0.4])
        nd = rank_candidates(omega, r, TransitionKind.NASCENT_TO_DEVELOPED,
                             full_u_zero=True)
        # whole U=0 set: everything with RCA <= 1
        assert {f for f, _ in nd[0].items} == {"F0", "F1", "F2"}


class TestAuroc:
    def _ranked(self, scores):
        items = sorted(
            [(f"F{j}", s) for j, s in enumerate(scores)],
            key=lambda kv: (-kv[1], kv[0]),
        )
        return RankedPrediction("s0", items)

    def test_perfect_ranking(self):
        res = auroc(self._ranked([0.9, 0.1, 0.2]), {"F0"})
        assert res.auroc == 1.0

    def test_all_ties(self):
        res = auroc(self._ranked([0.5, 0.5, 0.5, 0.5]), {"F0"})
        assert res.auroc == 0.5

    def test_hand_enumerated(self):
        # pos {0.6, 0.2}, neg {0.5, 0.4, 0.1}
        res = auroc(self._ranked([0.6, 0.2, 0.5, 0.4, 0.1]), {"F0", "F1"})
        assert res.auroc == pytest.approx(4 / 6)
        assert (res.n_pos, res.n_neg) == (2, 3)

    def test_undefined_without_negatives(self):
        assert auroc(self._ranked([0.9]), {"F0"}) is None

    def test_positives_must_be_candidates(self):
        with pytest.raises(ConfigError):
            auroc(self._ranked([0.9]), {"F7"})

    @given(st.integers(0, 2**31 - 1), st.integers(3, 30))
    @settings(max_examples=100, deadline=None)
    def test_matches_pairwise_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 10, size=n) / 10.0  # discrete -> ties happen
        n_pos = int(rng.integers(1, n))
        pos_idx = set(rng.choice(n, size=n_pos, replace=False).tolist())
        positives = {f"F{j}" for j in pos_idx}
        res = auroc(self._ranked(scores.tolist()), positives)
        expected = oracles.auroc_pairwise(
            [scores[j] for j in pos_idx],
            [scores[j] for j in range(n) if j not in pos_idx],
        )
        assert res.auroc == pytest.approx(expected, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.random(10)
        positives = {"F0", "F3", "F4"}
        a = auroc(self._ranked(scores.tolist()), positives)
        b = auroc(self._ranked((np.exp(3 * scores)).tolist()), positives)
        assert a.auroc == pytest.approx(b.auroc, abs=1e-12)

    def test_complement_sums_to_one_without_ties(self):
        rng = np.random.default_rng(4)
        scores = rng.permutation(10) / 10.0  # distinct
        positives = {"F1", "F5"}
        complement = {f"F{j}" for j in range(10)} - positives
        a = auroc(self._ranked(scores.tolist()), positives)
        b = auroc(self._ranked(scores.tolist()), complement)
        assert a.auroc + b.auroc == pytest.approx(1.0, abs=1e-12)


class TestSummarize:
    def _results(self, vals):
        return [AurocResult(f"s{i}", v, 1, 1) for i, v in enumerate(vals)]

    def test_singleton(self):
        s = summarize(self._results([1.0]))
        assert s.mean == s.median == s.q1 == s.q3 == 1.0
        assert s.n == 1

    def test_symmetric_pair(self):
        s = summarize(self._results([0.0, 1.0]))
        assert s.mean == 0.5
        assert s.median == 0.5

    def test_quantiles_match_sorted_oracle(self):
        rng = np.random.default_rng(6)
        vals = rng.random(100).tolist()
        s = summarize(self._results(vals))
        q1, med, q3 = oracles.quantiles_sorted_oracle(vals, [0.25, 0.5, 0.75])
        assert s.q1 == pytest.approx(q1, abs=1e-12)
        assert s.median == pytest.approx(med, abs=1e-12)
        assert s.q3 == pytest.approx(q3, abs=1e-12)

    def test_permutation_invariant(self):
        vals = [0.2, 0.9, 0.5, 0.7]
        a = summarize(self._results(vals))
        b = summarize(self._results(list(reversed(vals))))
        assert a.mean == pytest.approx(b.mean, abs=1e-15)
        assert (a.median, a.q1, a.q3) == (b.median, b.q1, b.q3)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            summarize([])


class TestCompareModels:
    def _results(self, vals):
        return [AurocResult(f"s{i}", v, 1, 1) for i, v in enumerate(vals)]

    def test_identical_lists(self):
        a = self._results([0.5, 0.6, 0.7])
        p = compare_models(a, a, n_permutations=500, seed=0)
        assert p == pytest.approx(1.0, abs=0.01)

    def test_extreme_separation(self):
        a = self._results([0.9] * 50)
        b = self._results([0.1] * 50)
        p = compare_models(a, b, n_permutations=10000, seed=1)
        assert p < 0.01

    def test_same_distribution(self):
        rng = np.random.default_rng(2)
        vals = rng.random(60).tolist()
        a = self._results(vals[:30])
        b = self._results(vals[30:])
        # resplit of one pool; should not look significant
        p = compare_models(a, b, n_permutations=2000, seed=3)
        assert p > 0.05

    def test_min_permutations(self):
        a = self._results([0.5])
        with pytest.raises(ConfigError):
            compare_models(a, a, n_permutations=50)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(9)
        a = self._results(rng.random(20).tolist())
        b = self._results(rng.random(20).tolist())
        p1 = compare_models(a, b, n_permutations=500, seed=7)
        p2 = compare_models(a, b, n_permutations=500, seed=7)
        assert p1 == p2


class TestCvSliding:
    def test_constant_values(self):
        points, skipped = cv_sliding(np.arange(10), np.ones(10), 4)
        assert skipped == 0
        assert all(cv == 0 for _, cv in points)

    def test_degenerate_window_is_global_cv(self):
        rng = np.random.default_rng(1)
        vals = rng.random(50) + 0.5
        points, _ = cv_sliding(np.arange(50), vals, 50)
        assert len(points) == 1
        assert points[0][1] == pytest.approx(vals.std(ddof=1) / vals.mean())

    def test_matches_recompute_oracle(self):
        rng = np.random.default_rng(2)
        cov = rng.random(200)
        vals = rng.random(200) + 0.1
        points, skipped = cv_sliding(cov, vals, 50)
        expected = oracles.cv_windows_oracle(cov, vals, 50)
        assert skipped == 0
        assert len(points) == len(expected) == 151
        for (m1, c1), (m2, c2) in zip(points, expected):
            assert m1 == pytest.approx(m2)
            assert c1 == pytest.approx(c2)

    def test_zero_mean_window_skipped(self):
        points, skipped = cv_sliding([0, 1, 2], [1.0, -1.0, 3.0], 2)
        assert skipped == 1
        assert len(points) == 1

    def test_window_too_large(self):
        with pytest.raises(ConfigError):
            cv_sliding([0, 1], [1.0, 2.0], 3)


class TestEvaluateTransition:
    def test_perfect_fixture_gives_auroc_one(self):
        # densities are built so the transitioned field outranks the rest
        before = rca_matrix([[0.0, 0.0, 0.0, 1.2],
                             [0.0, 0.0, 0.0, 1.2]])
        after = rca_matrix([[2.0, 0.0, 0.0, 1.2],
                            [0.0, 2.0, 0.0, 1.2]], W2)
        omega = EntityFieldMatrix(np.array([[0.9, 0.1, 0.1, 0.0],
                                            [0.1, 0.9, 0.1, 0.0]]),
                                  before.entity_ids, before.field_ids, W1)
        results, excluded = evaluate_transition(
            omega, before, after, TransitionKind.ZERO_TO_ACTIVE
        )
        assert excluded == 0
        assert [r.auroc for r in results] == [1.0, 1.0]

    def test_entities_without_events_counted(self):
        before = rca_matrix([[0.0, 1.2]])
        after = rca_matrix([[0.0, 1.2]], W2)
        omega = EntityFieldMatrix(np.array([[0.5, 0.5]]),
                                  before.entity_ids, before.field_ids, W1)
        results, excluded = evaluate_transition(
            omega, before, after, TransitionKind.ZERO_TO_ACTIVE
        )
        assert results == []
        assert excluded == 1

    @staticmethod
    def _is_candidate(before, kind, full_u_zero):
        if kind is TransitionKind.ZERO_TO_ACTIVE:
            return before == 0
        if full_u_zero:
            return before <= 1
        if kind is TransitionKind.NASCENT_TO_DEVELOPED:
            return 0 < before < 0.5
        return 0.5 <= before < 1

    @given(st.integers(0, 2**31 - 1), st.sampled_from(list(TransitionKind)),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_pairwise_oracle_per_entity(self, seed, kind, full_u_zero):
        rng = np.random.default_rng(seed)
        n_fields = int(rng.integers(1, 9))
        ids = [f"s{i}" for i in range(int(rng.integers(1, 12)))]
        before_ids = [e for e in ids if rng.random() < 0.8]
        after_ids = [str(e) for e in rng.permutation(ids) if rng.random() < 0.8]
        before = rca_matrix(rng.choice(RCA_GRID, (len(before_ids), n_fields)),
                            entity_ids=before_ids)
        after = rca_matrix(rng.choice(RCA_GRID, (len(after_ids), n_fields)), W2,
                           entity_ids=after_ids)
        omega = EntityFieldMatrix(rng.integers(0, 5, (len(before_ids), n_fields)) / 4.0,
                                  before.entity_ids, before.field_ids, W1)
        results, excluded = evaluate_transition(omega, before, after, kind,
                                                full_u_zero=full_u_zero)

        after_rows = dict(zip(after_ids, after.values))
        scored = []
        for i, eid in enumerate(before_ids):
            b = before.values[i]
            a = after_rows.get(eid, np.zeros(n_fields))
            cand = [j for j in range(n_fields)
                    if self._is_candidate(b[j], kind, full_u_zero)]
            if kind is TransitionKind.ZERO_TO_ACTIVE:
                pos = [j for j in cand if a[j] > 0]
            else:
                pos = [j for j in cand
                       if self._is_candidate(b[j], kind, False) and a[j] >= 1]
            neg = [j for j in cand if j not in pos]
            if pos and neg:
                scored.append((eid, len(pos), len(neg), oracles.auroc_pairwise(
                    omega.values[i, pos], omega.values[i, neg])))
        assert excluded == len(before_ids) - len(scored)
        assert [(r.entity_id, r.n_pos, r.n_neg) for r in results] == \
            [s[:3] for s in scored]
        for res, (*_, expected) in zip(results, scored):
            assert res.auroc == pytest.approx(expected, abs=1e-12)


def test_ccdf_basic():
    table = ccdf([1, 1, 2, 3])
    assert table == [(1.0, 1.0), (2.0, 0.5), (3.0, 0.25)]
