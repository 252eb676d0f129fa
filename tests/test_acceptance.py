"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-8 run on synthetic data only. Criteria 9-10 need the public
full-scale dataset and are skipped unless RESEARCH_SPACE_DATASET_DIR points
to prepared record/venue/taxonomy files.
"""

import os
from contextlib import contextmanager

import networkx as nx
import numpy as np
import pytest

import oracles
import simulation
from conftest import dense_hinge, make_corpus, make_taxonomy
from oracles import classify_stage, cosine
from research_space import emb_model
from research_space.emb_model import EmbeddingConfig, train_embeddings
from research_space.freq_model import copresence, proximity_freq
from research_space.network_analysis import (
    disparity_filter,
    disparity_pvalue,
    greedy_communities,
)
from research_space.prediction_eval import auroc
from research_space.presence import TimeWindow, contribution_matrix
from research_space.specialization import rca
from test_freq_model import presence_from_array
from test_network_analysis import graph, n_edges, nx_weights, two_cliques


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_acceptance_1_auroc_oracle_equivalence():
    with criterion(1, "AUROC oracle equivalence"):
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(2, 31))
            scores = rng.integers(0, 8, size=n) / 7.0  # coarse grid forces ties
            n_pos = int(rng.integers(1, n))
            pos_idx = set(rng.choice(n, size=n_pos, replace=False).tolist())
            pos = np.isin(np.arange(n), list(pos_idx))[None, :]
            res, _, _ = auroc(scores[None, :], np.ones_like(pos), pos)
            expected = oracles.auroc_pairwise(
                [scores[j] for j in pos_idx],
                [scores[j] for j in range(n) if j not in pos_idx],
            )
            assert abs(res[0] - expected) <= 1e-12

        # many rows at once, each with its own candidate set
        scores = rng.integers(0, 8, size=(300, 12)) / 7.0
        cand = rng.random((300, 12)) < 0.7
        pos = cand & (rng.random((300, 12)) < 0.3)
        res, n_pos, n_neg = auroc(scores, cand, pos)
        for i in range(300):
            p, q = scores[i, pos[i]], scores[i, cand[i] & ~pos[i]]
            assert (n_pos[i], n_neg[i]) == (len(p), len(q))
            if len(p) and len(q):
                assert abs(res[i] - oracles.auroc_pairwise(p, q)) <= 1e-12
            else:
                assert np.isnan(res[i])


def test_acceptance_2_frequentist_oracle():
    with criterion(2, "frequentist proximity oracle"):
        rng = np.random.default_rng(202)
        for _ in range(100):
            n_e = int(rng.integers(1, 26))
            arr = (rng.random((n_e, 10)) < rng.uniform(0.1, 0.6)).astype(int)
            p = presence_from_array(arr)
            phi = proximity_freq(copresence(p))
            np.testing.assert_array_equal(phi, oracles.proximity_freq_bruteforce(arr))
            counts = arr.sum(axis=0)
            lhs = phi * counts[None, :]
            np.testing.assert_allclose(lhs, lhs.T, atol=1e-12)


def test_acceptance_3_embedding_gradient_and_planted_cooccurrence():
    with criterion(3, "embedding gradients + planted co-occurrence"):
        rng = np.random.default_rng(303)
        margin = 0.5  # large margin keeps most random triples in the active region
        checked = 0
        while checked < 50:
            a = rng.normal(size=(1, 6))
            targets = rng.normal(size=(1, 3, 6))  # the positive and 2 negatives
            loss, g_in, g_t, _ = dense_hinge(emb_model.hinge_loss_and_grads, a, targets,
                                             margin)
            if loss[0] == 0:
                continue
            for analytic, point, wrap in (
                (g_t, targets,
                 lambda v: emb_model.hinge_loss_and_grads(a, v, margin)[0].sum()),
                (g_in, a,
                 lambda v: emb_model.hinge_loss_and_grads(v, targets, margin)[0].sum()),
            ):
                fd = oracles.finite_difference_grad(wrap, point)
                denom = max(np.linalg.norm(fd), 1e-12)
                assert np.linalg.norm(analytic - fd) / denom <= 1e-4
            checked += 1

        wins = 0
        for seed in range(100):
            bag_rng = np.random.default_rng(1000 + seed)
            p = np.zeros((30, 4), dtype=np.int8)  # four fields, 30 bags
            for i in range(30):
                if bag_rng.random() < 0.5:
                    p[i, [0, 1]] = 1
                else:
                    p[i, [2, 3]] = 1
            config = EmbeddingConfig(dim=8, epochs=5, seed=seed)
            emb = train_embeddings(p, config)
            v = emb.vectors
            if cosine(v[0], v[1]) > cosine(v[0], v[2]):
                wins += 1
        assert wins >= 95, f"co-occurrence ordering held in only {wins}/100 runs"


def _random_contribution(taxonomy, seed, n_entities=12):
    rng = np.random.default_rng(seed)
    rows = []
    for s in range(n_entities):
        for f in rng.choice(len(taxonomy), size=3, replace=False):
            rows.append((f"s{s}", [taxonomy.field_ids[f]],
                         int(rng.integers(1, 5)), 2010))
    return contribution_matrix(make_corpus(rows), taxonomy, TimeWindow(2010, 2010))


def test_acceptance_4_rca_global_invariance_and_single_entity():
    with criterion(4, "RCA global scale invariance + single-entity"):
        taxonomy = make_taxonomy(6)
        x = _random_contribution(taxonomy, seed=404)
        base = rca(x).copy()
        np.testing.assert_allclose(rca(x * 3.14159), base, atol=1e-12)

        rows = [("only", ["F001"], 1, 2010), ("only", ["F002", "F003"], 2, 2010)]
        x1 = contribution_matrix(make_corpus(rows), taxonomy, TimeWindow(2010, 2010))
        r1 = rca(x1)
        published = x1[0] > 0
        np.testing.assert_allclose(r1[0, published], 1.0, atol=1e-12)


def test_acceptance_4_rca_per_entity_scale_invariance():
    # Asserts RCA * global share (the within-entity share x_sf / x_s) is exact
    # under scaling one row; RCA itself moves, as the row shifts x_f / x.
    with criterion(4, "RCA per-entity scale invariance"):
        taxonomy = make_taxonomy(6)
        dense0 = _random_contribution(taxonomy, seed=405)
        base = rca(dense0).copy()
        dense = dense0.copy()
        dense[0] *= 2.5
        scaled = rca(dense)
        share_b = dense0.sum(axis=0) / dense0.sum()
        share_s = dense.sum(axis=0) / dense.sum()
        np.testing.assert_allclose(scaled * share_s, base * share_b,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(scaled[0] * share_s,
                                   dense0[0] / dense0[0].sum(),
                                   rtol=0, atol=1e-12)


def test_acceptance_5_stage_boundaries():
    with criterion(5, "stage boundary classification"):
        cases = [
            (0.0, "0"),
            (0.4999999999, "N"),
            (0.5, "I"),
            (0.9999999999, "I"),
            (1.0, "D"),
        ]
        for value, expected in cases:
            assert classify_stage(value).value == expected, value


def test_acceptance_6_disparity_filter():
    with criterion(6, "disparity filter closed forms + monotonicity"):
        assert abs(disparity_pvalue(1.0, 2.0, 2) - 0.5) <= 1e-12
        assert abs(disparity_pvalue(0.97, 1.0, 10) - 0.03 ** 9) <= 1e-12 * 0.03 ** 9 + 1e-25
        w, _ = graph([("m", "a", 1.0), ("m", "b", 1.0)])
        assert n_edges(disparity_filter(w, 0.51)) == 2
        assert n_edges(disparity_filter(w, 0.5)) == 0  # strict p < alpha

        rng = np.random.default_rng(606)
        big = np.zeros((15, 15))
        for i in range(15):
            for j in range(i + 1, 15):
                if rng.random() < 0.4:
                    big[i, j] = big[j, i] = float(rng.random()) + 0.01
        prev = set()
        for alpha in np.linspace(0.02, 0.98, 25):
            kept = disparity_filter(big, alpha)
            edges = set(zip(*np.nonzero(np.triu(kept, 1))))
            assert prev <= edges
            prev = edges


def test_acceptance_7_community_detection():
    with criterion(7, "greedy community detection"):
        labels, _ = greedy_communities(two_cliques(4)[0])
        comms = {frozenset(np.flatnonzero(labels == cid).tolist())
                 for cid in set(labels.tolist())}
        assert comms == {frozenset(range(4)), frozenset(range(4, 8))}

        fixtures = [
            two_cliques(3),
            two_cliques(4),
            nx_weights(nx.path_graph(6)),
            nx_weights(nx.cycle_graph(8)),
            nx_weights(nx.star_graph(6)),
            nx_weights(nx.complete_graph(5)),
        ]
        for w, _ in fixtures:
            _, got = greedy_communities(w)
            best = oracles.max_modularity_exhaustive(w, oracles.modularity_pairwise)
            assert got >= best - 0.05, f"Q {got} too far below optimum {best}"


def test_acceptance_8_planted_relatedness_end_to_end():
    with criterion(8, "planted-relatedness end-to-end"):
        taxonomy, corpus, positives = simulation.simulate(n_scientists=500, seed=808)
        phi_freq, phi_emb = simulation.fit_both_models(corpus, taxonomy, emb_seed=808)

        means = {}
        for tag, phi in (("freq", phi_freq), ("emb", phi_emb)):
            auc, _ = simulation.evaluate_zero_to_active(corpus, taxonomy, phi)
            scored = auc[~np.isnan(auc)]
            assert len(scored), f"{tag}: no scored entities"
            means[tag] = float(np.mean(scored))

        _, (omega, r_before, entity_ids) = simulation.evaluate_zero_to_active(
            corpus, taxonomy, phi_freq
        )
        baseline = simulation.shuffled_baseline(omega, r_before, entity_ids,
                                                taxonomy.field_ids, positives,
                                                seed=809)
        assert abs(baseline - 0.5) <= 0.03, f"shuffled baseline {baseline:.3f}"
        for tag, mean in means.items():
            assert mean >= 0.75, f"{tag} mean AUROC {mean:.3f} < 0.75"
            assert mean >= baseline + 0.25, (
                f"{tag} mean AUROC {mean:.3f} not 0.25 above baseline {baseline:.3f}"
            )


DATASET_DIR = os.environ.get("RESEARCH_SPACE_DATASET_DIR")
needs_dataset = pytest.mark.skipif(
    DATASET_DIR is None,
    reason="full-scale dataset not available; set RESEARCH_SPACE_DATASET_DIR "
    "to a directory with records.jsonl, venues.tsv, taxonomy.tsv",
)


@needs_dataset
def test_acceptance_9_full_dataset_first_setup():
    from pathlib import Path

    from research_space import artifacts, freq_model as fm, specialization as sm
    from research_space.corpus import EntityKind, FieldTaxonomy, VenueFieldMap, \
        resolve_corpus
    from oracles import evaluate_transition
    from research_space.prediction_eval import summarize
    from research_space.presence import presence_matrix

    with criterion(9, "full dataset first-setup AUROC"):
        base = Path(DATASET_DIR)
        taxonomy = FieldTaxonomy.from_file(base / "taxonomy.tsv")
        vmap = VenueFieldMap.from_file(base / "venues.tsv")
        resolved, _ = resolve_corpus(base / "records.jsonl", vmap, taxonomy,
                                     EntityKind.SCIENTIST)
        fit_w, rca_w, test_w = (TimeWindow(1999, 2013), TimeWindow(2011, 2013),
                                TimeWindow(2014, 2016))
        p = presence_matrix(contribution_matrix(resolved, taxonomy, fit_w), 0.05)
        phi = fm.proximity_freq(fm.copresence(p))
        x_before = contribution_matrix(resolved, taxonomy, rca_w)
        r_before = sm.rca(x_before)
        kind = sm.TransitionKind.ZERO_TO_ACTIVE
        u = sm.indicator(r_before, kind)
        omega = sm.density(u, phi)
        ids = resolved.entity_ids
        auc, _, _ = evaluate_transition(
            omega, r_before, ids,
            sm.rca(contribution_matrix(resolved, taxonomy, test_w)), ids, kind)
        # entities without a record in the RCA window have nothing to rank from
        auc = auc[x_before.any(axis=1)]
        mean = summarize(auc[~np.isnan(auc)])["mean"]
        assert abs(mean - 0.879) <= 0.02, f"frequentist scientists 0A mean {mean}"


@needs_dataset
def test_acceptance_10_backbone_edge_counts():
    from pathlib import Path

    from research_space import network_analysis as net
    from research_space.corpus import EntityKind, FieldTaxonomy, VenueFieldMap, \
        resolve_corpus
    from research_space.freq_model import ProximityMatrix
    from research_space.presence import presence_matrix

    with criterion(10, "backbone edge counts"):
        base = Path(DATASET_DIR)
        taxonomy = FieldTaxonomy.from_file(base / "taxonomy.tsv")
        vmap = VenueFieldMap.from_file(base / "venues.tsv")
        resolved, _ = resolve_corpus(base / "records.jsonl", vmap, taxonomy,
                                     EntityKind.SCIENTIST)
        expected = {(2003, 2007): 65, (2008, 2012): 60, (2012, 2016): 54}
        for (start, end), n_edges in expected.items():
            window = TimeWindow(start, end)
            p = presence_matrix(contribution_matrix(resolved, taxonomy, window), 0.10)
            emb = train_embeddings(p, EmbeddingConfig(seed=0))
            phi = ProximityMatrix(emb_model.proximity_emb(emb.vectors),
                                  list(taxonomy.field_ids), "embedding", window)
            _, agg = net.aggregate_to_intermediate(phi.values, taxonomy)
            kept = net.disparity_filter(net.proximity_graph(agg), 0.20)
            assert abs(np.count_nonzero(np.triu(kept, 1)) - n_edges) <= 5
