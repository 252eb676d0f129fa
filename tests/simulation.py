"""Planted-relatedness simulator: synthetic scientists whose new fields are
drawn proportionally to a known proximity matrix, used to check that both
models recover the planted structure end to end."""

import numpy as np

import oracles
from conftest import make_corpus, make_taxonomy
from research_space import emb_model, freq_model
from research_space import prediction_eval as pe
from research_space import specialization as spec_mod
from research_space.presence import TimeWindow, contribution_matrix, presence_matrix

FIT_WINDOW = TimeWindow(2000, 2004)
TEST_WINDOW = TimeWindow(2005, 2007)


def planted_phi(n_fields=12, cluster_size=4, within=0.9, across=0.02):
    phi = np.full((n_fields, n_fields), across)
    for start in range(0, n_fields, cluster_size):
        phi[start:start + cluster_size, start:start + cluster_size] = within
    np.fill_diagonal(phi, 1.0)
    return phi


def simulate(n_scientists=500, n_fields=12, cluster_size=4, portfolio_size=3,
             seed=0):
    """Returns (taxonomy, corpus, positives-by-entity).

    Each scientist holds a random portfolio inside one cluster during the fit
    window and enters one new field in the test window, drawn with
    probability proportional to its planted relatedness to the portfolio.
    """
    rng = np.random.default_rng(seed)
    phi = planted_phi(n_fields, cluster_size)
    taxonomy = make_taxonomy(n_fields, fields_per_intermediate=cluster_size)
    n_clusters = n_fields // cluster_size
    rows = []
    positives = {}
    for s in range(n_scientists):
        eid = f"S{s:04d}"
        cluster = rng.integers(n_clusters)
        cluster_fields = np.arange(cluster * cluster_size, (cluster + 1) * cluster_size)
        portfolio = rng.choice(cluster_fields, size=portfolio_size, replace=False)
        for f in portfolio:
            for year in range(FIT_WINDOW.start_year, FIT_WINDOW.end_year + 1):
                rows.append((eid, [taxonomy.field_ids[f]], 1, year))
        candidates = np.setdiff1d(np.arange(n_fields), portfolio)
        weights = phi[np.ix_(candidates, portfolio)].sum(axis=1)
        new_field = rng.choice(candidates, p=weights / weights.sum())
        positives[eid] = {taxonomy.field_ids[new_field]}
        for year in range(TEST_WINDOW.start_year, TEST_WINDOW.end_year + 1):
            rows.append((eid, [taxonomy.field_ids[new_field]], 1, year))
    return taxonomy, make_corpus(rows), positives


def fit_both_models(corpus, taxonomy, theta=0.05, emb_seed=0):
    """The frequentist and embedding proximity arrays of the fit window."""
    p = presence_matrix(contribution_matrix(corpus, taxonomy, FIT_WINDOW), theta)
    phi_freq = freq_model.proximity_freq(freq_model.copresence(p))
    config = emb_model.EmbeddingConfig(dim=16, epochs=10, seed=emb_seed)
    embedding = emb_model.train_embeddings(p, config)
    phi_emb = emb_model.proximity_emb(embedding.vectors)
    return phi_freq, phi_emb


def evaluate_zero_to_active(corpus, taxonomy, phi):
    """0A AUROCs of a proximity array on the corpus's entities, every one of
    which has records in the fit window, and the density, RCA and entity ids
    they were scored from."""
    kind = spec_mod.TransitionKind.ZERO_TO_ACTIVE
    r_before = spec_mod.rca(contribution_matrix(corpus, taxonomy, FIT_WINDOW))
    r_after = spec_mod.rca(contribution_matrix(corpus, taxonomy, TEST_WINDOW))
    omega = spec_mod.density(spec_mod.indicator(r_before, kind), phi)
    ids = corpus.entity_ids
    auc, _, _ = oracles.evaluate_transition(omega, r_before, ids, r_after, ids, kind)
    return auc, (omega, r_before, ids)


def shuffled_baseline(omega, r_before, entity_ids, field_ids, positives, seed=1):
    """Mean AUROC when each entity's positive labels are re-drawn uniformly
    among its candidates, keeping the model's scores."""
    rng = np.random.default_rng(seed)
    kind = spec_mod.TransitionKind.ZERO_TO_ACTIVE
    order, n_candidates = pe.rank_candidates(
        omega, spec_mod.candidate_mask(r_before, kind), len(field_ids))
    cand = np.zeros(omega.shape, dtype=bool)
    fake = np.zeros_like(cand)
    for i, eid in enumerate(entity_ids):
        ranked = order[i, :n_candidates[i]]
        cand[i, ranked] = True
        true_pos = positives.get(eid, set())
        n_pos = sum(field_ids[j] in true_pos for j in ranked)
        if n_pos == 0 or n_pos == len(ranked):
            continue
        fake[i, rng.choice(ranked, size=n_pos, replace=False)] = True
    auc, _, _ = pe.auroc(omega, cand, fake)
    return float(np.mean(auc[~np.isnan(auc)]))
