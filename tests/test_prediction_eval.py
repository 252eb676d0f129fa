import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import binom, rankdata

import oracles
import simulation
from conftest import same_bits
from oracles import cv_sliding
from research_space import prediction_eval
from research_space.errors import ConfigError
from research_space.prediction_eval import (
    auroc,
    ccdf,
    compare_models,
    rank_candidates,
    summarize,
)
from research_space.specialization import TransitionKind, candidate_mask, realized_mask

# RCA values on and between the stage bounds 0, 0.5 and 1.
RCA_GRID = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.5])


@st.composite
def scored_masks(draw, min_fields=0):
    """Tie-heavy scores, negatives and zeros of both signs among them, with a
    candidate mask and positives among the candidates, all of one entity x
    field shape, which may be empty."""
    shape = draw(st.integers(0, 9)), draw(st.integers(min_fields, 9))
    scores = draw(hnp.arrays(np.float64, shape, elements=st.sampled_from(
        [-1.5, -0.0, 0.0, 0.25, 0.5, 2.0])))
    cand = draw(hnp.arrays(np.bool_, shape))
    return scores, cand, draw(hnp.arrays(np.bool_, shape)) & cand


def evaluate_transition(omega, before, after, kind, full_u_zero=False):
    """AUROC per entity, composed as the evaluate command does: candidate and
    realized masks, then auroc. omega and the RCA arrays before and after
    share their axes."""
    return auroc(omega, candidate_mask(before, kind, full_u_zero),
                 realized_mask(before, after, kind))


def transitions(before, after, kind, omega_rows=None):
    """evaluate_transition of two RCA arrays given as lists; omega defaults
    to zeros."""
    before, after = np.asarray(before, dtype=float), np.asarray(after, dtype=float)
    values = np.zeros_like(before) if omega_rows is None else omega_rows
    return evaluate_transition(np.asarray(values, dtype=float), before, after, kind)


class TestDetectTransitions:
    """Realized transitions, as evaluate_transition's per-entity counts. Where
    a row has several candidates, densities that rank F0 first make an AUROC
    of 1 mean that F0, and only F0, transitioned."""

    def test_zero_to_active(self):
        before = [[0.0, 1.0]]
        after = [[0.4, 1.0]]
        # F0 is the only 0A candidate
        _, n_pos, n_neg = transitions(before, after, TransitionKind.ZERO_TO_ACTIVE)
        assert (n_pos.tolist(), n_neg.tolist()) == ([1], [0])

    def test_nascent_to_developed(self):
        before = [[0.3, 0.3]]
        after = [[1.5, 0.9]]
        auc, n_pos, n_neg = transitions(before, after,
                                        TransitionKind.NASCENT_TO_DEVELOPED,
                                        [[1.0, 0.0]])
        # 0.9 is not Developed after, so only F0 transitions
        assert (n_pos.tolist(), n_neg.tolist()) == ([1], [1])
        assert auc.tolist() == [1.0]

    def test_intermediate_to_developed(self):
        before = [[0.6, 0.3]]
        after = [[1.0, 2.0]]
        # F1 reaches Developed from Nascent, which is not an ID transition
        _, n_pos, n_neg = transitions(before, after,
                                      TransitionKind.INTERMEDIATE_TO_DEVELOPED)
        assert (n_pos.tolist(), n_neg.tolist()) == ([1], [0])


class TestRankCandidates:
    def _setup(self, rca_rows, omega_rows, field_ids=None):
        """omega, RCA and the field ids of their columns, F0, F1, ... by
        default; the ids ascend along the axis, as the taxonomy holds them."""
        r = np.asarray(rca_rows, dtype=float)
        field_ids = field_ids or [f"F{j}" for j in range(r.shape[1])]
        return np.array(omega_rows, dtype=float), r, field_ids

    @staticmethod
    def _ranked(omega, r, field_ids, kind, full_u_zero=False):
        """Each entity's ranked (field_id, density) pairs."""
        order, n_candidates = rank_candidates(
            omega, candidate_mask(r, kind, full_u_zero), len(field_ids))
        return [[(field_ids[j], float(omega[i, j]))
                 for j in order[i, :n_candidates[i]]]
                for i in range(len(omega))]

    def test_no_candidates(self):
        omega, r, field_ids = self._setup([[1.0, 2.0]], [[0.5, 0.5]])
        _, n_candidates = rank_candidates(
            omega, candidate_mask(r, TransitionKind.ZERO_TO_ACTIVE), 1)
        assert n_candidates.tolist() == [0]

    def test_tie_breaks_on_field_id(self):
        omega, r, fids = self._setup([[0.0, 0.0, 0.0, 1.5]], [[0.7, 0.2, 0.7, 0.9]])
        ranked = self._ranked(omega, r, fids, TransitionKind.ZERO_TO_ACTIVE)
        assert [f for f, _ in ranked[0]] == ["F0", "F2", "F1"]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(2)
        scores = rng.random(5).round(1)  # rounding forces some ties
        omega, r, fids = self._setup([[0.0] * 5], [scores.tolist()])
        ranked = self._ranked(omega, r, fids, TransitionKind.ZERO_TO_ACTIVE)
        expected = sorted(
            [(f"F{j}", float(scores[j])) for j in range(5)],
            key=lambda kv: (-kv[1], kv[0]),
        )
        assert ranked[0] == expected

    def test_source_stage_restriction(self):
        omega, r, fids = self._setup([[0.0, 0.3, 0.7, 1.5]], [[0.1, 0.2, 0.3, 0.4]])
        nd = self._ranked(omega, r, fids, TransitionKind.NASCENT_TO_DEVELOPED)
        assert [f for f, _ in nd[0]] == ["F1"]
        id_ = self._ranked(omega, r, fids, TransitionKind.INTERMEDIATE_TO_DEVELOPED)
        assert [f for f, _ in id_[0]] == ["F2"]

    def test_full_u_zero_flag(self):
        omega, r, fids = self._setup([[0.0, 0.3, 0.7, 1.5]], [[0.1, 0.2, 0.3, 0.4]])
        nd = self._ranked(omega, r, fids, TransitionKind.NASCENT_TO_DEVELOPED,
                          full_u_zero=True)
        # whole U=0 set: everything with RCA <= 1
        assert {f for f, _ in nd[0]} == {"F0", "F1", "F2"}

    @given(st.integers(0, 2**31 - 1), st.sampled_from(list(TransitionKind)),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_sort_oracle_with_multi_digit_field_ids(self, seed, kind,
                                                            full_u_zero):
        rng = np.random.default_rng(seed)
        n_entities, n_fields = int(rng.integers(1, 8)), int(rng.integers(1, 14))
        # multi-digit ids in the taxonomy's column order: "F10" sorts before "F2"
        field_ids = sorted(f"F{j + 1}" for j in range(n_fields))
        rca_vals = rng.choice(RCA_GRID, (n_entities, n_fields))
        scores = rng.integers(0, 5, (n_entities, n_fields)) / 4.0  # tie-heavy
        omega, r, fids = self._setup(rca_vals, scores, field_ids)
        stage = TestEvaluateTransition._is_candidate
        expected = [
            sorted(((field_ids[j], float(scores[i, j])) for j in range(n_fields)
                    if stage(rca_vals[i, j], kind, full_u_zero)),
                   key=lambda kv: (-kv[1], kv[0]))
            for i in range(n_entities)
        ]
        assert self._ranked(omega, r, fids, kind, full_u_zero) == expected

    @given(scored_masks(min_fields=1), st.data())
    @settings(max_examples=400, deadline=None)
    def test_top_k_equals_lexsort_oracle(self, case, data):
        """Ties at the k-th score, multi-digit field ids in the taxonomy's
        column order ("F10" sorts before "F2"), fewer candidates than top, and
        top above the field count."""
        omega, cand, _ = case
        n_fields = omega.shape[1]
        field_ids = sorted(f"F{j + 1}" for j in range(n_fields))
        top = data.draw(st.integers(1, n_fields + 3))
        order, n_candidates = rank_candidates(omega, cand, top)
        expected, n_expected = oracles.rank_candidates_lexsort(omega, cand, field_ids)
        assert n_candidates.tolist() == n_expected.tolist()
        assert order.shape == (len(omega), min(top, n_fields))
        for i, n in enumerate(n_expected.tolist()):
            k = min(top, n)
            assert order[i, :k].tolist() == expected[i, :k].tolist()


def auroc_row(scores, positives, cand=None):
    """Row-wise auroc on one row; every field is a candidate by default.
    Returns (auroc, n_pos, n_neg) as Python scalars."""
    scores = np.array([scores], dtype=float)
    pos = np.zeros_like(scores, dtype=bool)
    pos[0, sorted(positives)] = True
    cand = np.ones_like(pos) if cand is None else np.array([cand])
    auc, n_pos, n_neg = auroc(scores, cand, pos)
    return float(auc[0]), int(n_pos[0]), int(n_neg[0])


class TestAuroc:
    def test_perfect_ranking(self):
        assert auroc_row([0.9, 0.1, 0.2], {0})[0] == 1.0

    def test_all_ties(self):
        assert auroc_row([0.5, 0.5, 0.5, 0.5], {0})[0] == 0.5

    def test_hand_enumerated(self):
        # pos {0.6, 0.2}, neg {0.5, 0.4, 0.1}
        auc, n_pos, n_neg = auroc_row([0.6, 0.2, 0.5, 0.4, 0.1], {0, 1})
        assert auc == pytest.approx(4 / 6)
        assert (n_pos, n_neg) == (2, 3)

    def test_undefined_without_negatives(self):
        assert np.isnan(auroc_row([0.9], {0})[0])

    def test_positives_must_be_candidates(self):
        with pytest.raises(ConfigError):
            auroc_row([0.9, 0.5], {1}, cand=[True, False])

    @given(st.integers(0, 2**31 - 1), st.integers(3, 30))
    @settings(max_examples=100, deadline=None)
    def test_matches_pairwise_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 10, size=n) / 10.0  # discrete -> ties happen
        n_pos = int(rng.integers(1, n))
        pos_idx = set(rng.choice(n, size=n_pos, replace=False).tolist())
        res, *_ = auroc_row(scores, pos_idx)
        expected = oracles.auroc_pairwise(
            [scores[j] for j in pos_idx],
            [scores[j] for j in range(n) if j not in pos_idx],
        )
        assert res == pytest.approx(expected, abs=1e-12)

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                   min_side=0, max_side=12),
                      elements=st.sampled_from([-1.0, 0.0, 0.5, 2.0, np.nan])),
           st.integers(0, 12))
    @example(np.full((2, 3), np.nan), 0)
    @example(np.array([[0.5], [np.nan], [2.0]]), 12)
    @example(np.zeros((0, 4)), 0)
    @settings(max_examples=300, deadline=None)
    def test_midranks_match_scipy_rankdata(self, a, nan_row):
        """Tie-heavy rows with NaNs; nan_row, if it is a row, is all NaN."""
        if nan_row < len(a):
            a[nan_row] = np.nan
        expected = rankdata(a, axis=1, nan_policy="omit")
        assert np.array_equal(oracles.midranks(a), expected, equal_nan=True)

    @given(scored_masks(), st.sampled_from([1, 2, 3, prediction_eval.AUROC_BLOCK]))
    @example((np.zeros((0, 4)), np.zeros((0, 4), bool), np.zeros((0, 4), bool)), 1)
    @example((np.zeros((3, 0)), np.zeros((3, 0), bool), np.zeros((3, 0), bool)), 1)
    @example((np.array([[-0.0, 0.0, 0.0, 0.5]]), np.ones((1, 4), bool),
              np.array([[True, False, True, False]])), 1)
    @example((np.array([[0.5, 1.0], [0.5, 1.0]]), np.ones((2, 2), bool),
              np.array([[True, True], [False, False]])), 2)
    @settings(max_examples=400, deadline=None)
    def test_equals_midrank_oracle_bit_for_bit(self, case, block):
        """Rows with no positive or no negative, and blocks of 1-3 positive
        cells, across which U adds up."""
        scores, cand, pos = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prediction_eval, "AUROC_BLOCK", block)
            got = auroc(scores, cand, pos)
        expected = oracles.auroc_midranks(scores, cand, pos)
        assert all(same_bits(g, e) for g, e in zip(got, expected, strict=True))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_candidate_score_rejected(self, bad):
        # pair counts would score a NaN positive as losing every pair
        with pytest.raises(ConfigError, match="not finite"):
            auroc_row([0.9, bad, 0.1], {0})
        with pytest.raises(ConfigError, match="not finite"):
            auroc_row([bad, 0.5, 0.1], {0})
        # a score outside the candidates is never compared
        assert auroc_row([0.9, bad, 0.1], {0}, cand=[True, False, True])[0] == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.random(10)
        positives = {0, 3, 4}
        a, *_ = auroc_row(scores, positives)
        b, *_ = auroc_row(np.exp(3 * scores), positives)
        assert a == pytest.approx(b, abs=1e-12)

    def test_complement_sums_to_one_without_ties(self):
        rng = np.random.default_rng(4)
        scores = rng.permutation(10) / 10.0  # distinct
        positives = {1, 5}
        complement = set(range(10)) - positives
        a, *_ = auroc_row(scores, positives)
        b, *_ = auroc_row(scores, complement)
        assert a + b == pytest.approx(1.0, abs=1e-12)


class TestSummarize:
    def test_singleton(self):
        s = summarize(np.array([1.0]))
        assert s["mean"] == s["median"] == s["q1"] == s["q3"] == 1.0
        assert s["n"] == 1

    def test_symmetric_pair(self):
        s = summarize(np.array([0.0, 1.0]))
        assert s["mean"] == 0.5
        assert s["median"] == 0.5

    def test_quantiles_match_sorted_oracle(self):
        rng = np.random.default_rng(6)
        vals = rng.random(100)
        s = summarize(vals)
        q1, med, q3 = oracles.quantiles_sorted_oracle(vals.tolist(), [0.25, 0.5, 0.75])
        assert s["q1"] == pytest.approx(q1, abs=1e-12)
        assert s["median"] == pytest.approx(med, abs=1e-12)
        assert s["q3"] == pytest.approx(q3, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, 1.0),
                              st.sampled_from([0.0, 1.0, 0.5, 5e-324, 1e-310])),
                    min_size=1, max_size=30))
    @example([0.3])
    @example([0.3, 0.7])
    @example([0.1, 0.9, 0.4])
    @example([0.6] * 7)
    @example([0.0, 1.0, 0.0, 1.0, 1.0])
    @example([5e-324, 0.0, 1e-310, 5e-324])
    def test_quartiles_equal_np_quantile_bit_for_bit(self, values):
        s = summarize(np.array(values))
        assert [s[k].hex() for k in ("q1", "median", "q3")] == \
               [q.hex() for q in oracles.quartiles_np(values)]

    def test_permutation_invariant(self):
        vals = np.array([0.2, 0.9, 0.5, 0.7])
        a = summarize(vals)
        b = summarize(vals[::-1])
        assert a["mean"] == pytest.approx(b["mean"], abs=1e-15)
        assert (a["median"], a["q1"], a["q3"]) == (b["median"], b["q1"], b["q3"])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            summarize(np.array([]))


class TestCompareModels:
    def test_identical_lists(self):
        a = np.array([0.5, 0.6, 0.7])
        p = compare_models(a, a, n_permutations=500, seed=0)
        assert p == pytest.approx(1.0, abs=0.01)

    def test_extreme_separation(self):
        a = np.full(50, 0.9)
        b = np.full(50, 0.1)
        p = compare_models(a, b, n_permutations=10000, seed=1)
        assert p < 0.01

    def test_same_distribution(self):
        rng = np.random.default_rng(2)
        vals = rng.random(60)
        # resplit of one pool; should not look significant
        p = compare_models(vals[:30], vals[30:], n_permutations=2000, seed=3)
        assert p > 0.05

    def test_min_permutations(self):
        a = np.array([0.5])
        with pytest.raises(ConfigError):
            compare_models(a, a, n_permutations=50)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(9)
        a = rng.random(20)
        b = rng.random(20)
        p1 = compare_models(a, b, n_permutations=500, seed=7)
        p2 = compare_models(a, b, n_permutations=500, seed=7)
        assert p1 == p2


    def test_non_finite_rejected(self):
        # a NaN fails every comparison, which read as the smallest p-value
        with pytest.raises(ConfigError, match="non-finite"):
            compare_models([0.5, np.nan, 0.7], [0.5, 0.6, 0.7], n_permutations=200)
        with pytest.raises(ConfigError, match="non-finite"):
            compare_models([0.5, 0.6], [np.inf, 0.6], n_permutations=200)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ConfigError, match="differ in length"):
            compare_models([0.5, 0.6, 0.7], [0.5, 0.6], n_permutations=200)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_exact_sign_flip_p(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random(10)
        b = np.where(rng.random(10) < 0.3, a, a - 0.15 + 0.3 * rng.random(10))
        p = compare_models(a, b, n_permutations=20000, seed=seed)
        assert (p * 20001) == pytest.approx(round(p * 20001), abs=1e-6)
        # 20,000 draws put the estimate within 0.0036 (one sd) of the exact p
        assert p == pytest.approx(oracles.sign_flip_p_exact(a, b), abs=0.015)


@pytest.fixture(scope="module")
def planted():
    """Taxonomy and corpus of 300 planted-relatedness scientists, and a
    function from a field x field array to their 0A AUROCs, NaN-free."""
    taxonomy, corpus, _ = simulation.simulate(n_scientists=300, seed=5)

    def score(values):
        auc, _ = simulation.evaluate_zero_to_active(corpus, taxonomy, values)
        return auc

    scored = ~np.isnan(score(simulation.planted_phi()))
    return lambda values: score(values)[scored]


def blurred_phi(weight, seed):
    """The planted proximity mixed with uniform noise of the given weight."""
    noise = np.random.default_rng(seed).random(simulation.planted_phi().shape)
    return (1 - weight) * simulation.planted_phi() + weight * noise


class TestCompareModelsGates:
    def test_null_rejection_rate_is_calibrated(self, planted):
        # one phi scored twice, each time with its own noise; swapping each
        # entity's pair with probability 1/2 makes the two lists exchangeable
        a, b = planted(blurred_phi(0.3, 1)), planted(blurred_phi(0.3, 2))
        n_runs = 200
        rejections = 0
        for seed in range(n_runs):
            swap = np.random.default_rng(seed).random(len(a)) < 0.5
            p = compare_models(np.where(swap, b, a), np.where(swap, a, b),
                               n_permutations=999, seed=seed)
            rejections += p <= 0.05
        low, high = binom.interval(0.99, n_runs, 0.05)
        assert low <= rejections <= high

    def test_rejects_at_least_as_often_as_the_pooled_test(self, planted):
        better = planted(simulation.planted_phi())
        worse = planted(blurred_phi(0.8, 0))
        rng = np.random.default_rng(1)
        paired = pooled = 0
        for trial in range(100):
            rows = rng.choice(len(better), size=30, replace=False)
            paired += compare_models(better[rows], worse[rows],
                                     n_permutations=200, seed=trial) <= 0.05
            pooled += oracles.compare_models_pooled(better[rows], worse[rows],
                                                    200, trial) <= 0.05
        assert 0 < pooled <= paired < 100


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
        before = np.array([[0.0, 0.0, 0.0, 1.2],
                           [0.0, 0.0, 0.0, 1.2]])
        after = np.array([[2.0, 0.0, 0.0, 1.2],
                          [0.0, 2.0, 0.0, 1.2]])
        omega = np.array([[0.9, 0.1, 0.1, 0.0],
                          [0.1, 0.9, 0.1, 0.0]])
        auc, _, _ = evaluate_transition(
            omega, before, after, TransitionKind.ZERO_TO_ACTIVE
        )
        assert auc.tolist() == [1.0, 1.0]

    def test_entities_without_events_counted(self):
        before = np.array([[0.0, 1.2]])
        after = np.array([[0.0, 1.2]])
        omega = np.array([[0.5, 0.5]])
        auc, _, _ = evaluate_transition(
            omega, before, after, TransitionKind.ZERO_TO_ACTIVE
        )
        assert len(auc) == 1 and np.isnan(auc[0])

    @staticmethod
    def _is_candidate(before, kind, full_u_zero):
        if kind is TransitionKind.ZERO_TO_ACTIVE:
            return before == 0
        if full_u_zero:
            return before <= 1
        if kind is TransitionKind.NASCENT_TO_DEVELOPED:
            return 0 < before < 0.5
        return 0.5 <= before < 1

    @staticmethod
    def _random_case(seed):
        """The ids of a corpus's entities; RCA before and after as (array,
        entity ids) pairs on partly shared, shuffled subsets of them; and
        tie-heavy densities on the corpus's entity axis."""
        rng = np.random.default_rng(seed)
        n_fields = int(rng.integers(1, 9))
        ids = [f"s{i}" for i in range(int(rng.integers(1, 12)))]
        before_ids = [str(e) for e in rng.permutation(ids) if rng.random() < 0.8]
        after_ids = [str(e) for e in rng.permutation(ids) if rng.random() < 0.8]
        before = rng.choice(RCA_GRID, (len(before_ids), n_fields)), before_ids
        after = rng.choice(RCA_GRID, (len(after_ids), n_fields)), after_ids
        omega = rng.integers(0, 5, (len(ids), n_fields)) / 4.0
        return ids, before, after, omega

    @staticmethod
    def _on_axis(ids, r, r_ids):
        """r's rows moved to the axis of ids, all zero for an id not in r_ids."""
        out = np.zeros((len(ids), r.shape[1]))
        out[[ids.index(e) for e in r_ids]] = r
        return out

    @given(st.integers(0, 2**31 - 1), st.sampled_from(list(TransitionKind)),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_masks_match_reference_composition(self, seed, kind, full_u_zero):
        # masks built once per run on the corpus's entity axis score each
        # entity of the RCA window as the per-model composition, which aligns
        # the two windows by entity id, did
        ids, before, after, omega = self._random_case(seed)
        rows = [ids.index(e) for e in before[1]]
        expected = oracles.evaluate_transition(omega[rows], *before, *after, kind,
                                               full_u_zero)
        got = evaluate_transition(omega, self._on_axis(ids, *before),
                                  self._on_axis(ids, *after), kind, full_u_zero)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g[rows], e)

    @given(st.integers(0, 2**31 - 1), st.sampled_from(list(TransitionKind)),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_pairwise_oracle_per_entity(self, seed, kind, full_u_zero):
        ids, before, after, omega = self._random_case(seed)
        n_fields = omega.shape[1]
        auc, n_pos, n_neg = evaluate_transition(
            omega, self._on_axis(ids, *before), self._on_axis(ids, *after), kind,
            full_u_zero=full_u_zero)
        before_rows, after_rows = (dict(zip(r_ids, r)) for r, r_ids in (before, after))
        # as in the evaluate command, only entities of the RCA window count
        kept = [i for i in np.flatnonzero(~np.isnan(auc)) if ids[i] in before_rows]

        scored = []
        for i, eid in enumerate(ids):
            if eid not in before_rows:
                continue
            b = before_rows[eid]
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
                    omega[i, pos], omega[i, neg])))
        assert len(auc) == len(ids)
        assert [(ids[i], n_pos[i], n_neg[i]) for i in kept] == \
            [s[:3] for s in scored]
        for i, (*_, expected) in zip(kept, scored):
            assert auc[i] == pytest.approx(expected, abs=1e-12)


def test_ccdf_basic():
    table = ccdf([1, 1, 2, 3])
    assert table == [(1.0, 1.0), (2.0, 0.5), (3.0, 0.25)]


@given(st.lists(st.one_of(st.integers(0, 5), st.floats(-1e6, 1e6)), max_size=40))
@example([])
@example([7])
@example([2, 2, 2])
@settings(max_examples=200, deadline=None)
def test_ccdf_matches_count_loop(values):
    table = ccdf(values)
    assert all(type(x) is float and type(c) is float for x, c in table)
    assert table == oracles.ccdf_count_loop(values)
