import numpy as np
import pytest

import oracles
from research_space.emb_model import (
    EmbeddingConfig,
    build_bags,
    cosine,
    hinge_loss_and_grads,
    proximity_emb,
    train_embeddings,
)
from research_space.errors import ConfigError, TrainingError
from research_space.presence import TimeWindow
from test_freq_model import presence_from_array

WINDOW = TimeWindow(2000, 2010)
FIELD_IDS = ["F000", "F001", "F002"]


def cooccurrence_bags(n=30, seed=0):
    """f0 and f1 always co-occur; f2 appears alone or with a fourth field."""
    rng = np.random.default_rng(seed)
    bags = []
    for i in range(n):
        if rng.random() < 0.5:
            bags.append(np.array([0, 1]))
        else:
            bags.append(np.array([2, 3]))
    return bags


class TestBags:
    def test_bag_sizes(self):
        p = presence_from_array([[1, 1, 1], [1, 0, 0], [0, 0, 0]])
        bags = build_bags(p)
        assert len(bags) == 2  # empty row emits no bag
        assert bags[0].tolist() == [0, 1, 2]
        assert bags[1].tolist() == [0]

        # on a random P: the per-row nonzero columns, empty rows skipped,
        # sorted even when P's CSR rows are not
        rng = np.random.default_rng(4)
        arr = (rng.random((40, 9)) < 0.25).astype(np.int8)
        expected = [np.flatnonzero(row) for row in arr if row.any()]
        p = presence_from_array(arr)
        csr = p.values
        for i in range(arr.shape[0]):
            rng.shuffle(csr.indices[csr.indptr[i]:csr.indptr[i + 1]])
        csr.has_sorted_indices = False
        bags = build_bags(p)
        assert len(bags) == len(expected)
        for got, want in zip(bags, expected):
            np.testing.assert_array_equal(got, want)


class TestCosine:
    def test_identity(self):
        v = np.array([0.3, -0.2, 0.5])
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        got = cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(1 / np.sqrt(2))

    def test_zero_norm_convention(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0


class TestTraining:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            EmbeddingConfig(dim=0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                EmbeddingConfig(learning_rate=bad)
            with pytest.raises(ConfigError):
                EmbeddingConfig(margin=bad)

    def test_no_trainable_bags(self):
        bags = [np.array([0])]
        with pytest.raises(TrainingError):
            train_embeddings(bags, EmbeddingConfig(dim=4, seed=1), FIELD_IDS, WINDOW)

    def test_zero_epochs_keeps_init(self):
        bags = cooccurrence_bags()
        fields = FIELD_IDS + ["F003"]
        config = EmbeddingConfig(dim=8, epochs=0, seed=5)
        emb = train_embeddings(bags, config, fields, WINDOW)
        rng = np.random.default_rng(5)
        expected = rng.uniform(-1 / 8, 1 / 8, size=(4, 8))
        np.testing.assert_array_equal(emb.vectors, expected)

    def test_determinism(self):
        bags = cooccurrence_bags()
        fields = FIELD_IDS + ["F003"]
        config = EmbeddingConfig(dim=8, epochs=3, seed=42)
        a = train_embeddings(bags, config, fields, WINDOW)
        b = train_embeddings(bags, config, fields, WINDOW)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_planted_cooccurrence_separates(self):
        bags = cooccurrence_bags(n=40, seed=3)
        fields = FIELD_IDS + ["F003"]
        config = EmbeddingConfig(dim=8, epochs=10, seed=3)
        emb = train_embeddings(bags, config, fields, WINDOW)
        v = emb.vectors
        assert cosine(v[0], v[1]) > cosine(v[0], v[2])

    def test_epoch_loss_non_increasing(self):
        bags = cooccurrence_bags(n=40, seed=9)
        fields = FIELD_IDS + ["F003"]
        config = EmbeddingConfig(dim=8, epochs=8, seed=9)
        emb = train_embeddings(bags, config, fields, WINDOW)
        losses = emb.epoch_losses
        # allow 5% headroom for SGD noise
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier * 1.05 + 1e-9

    def test_max_norm_projection(self):
        bags = cooccurrence_bags(n=40, seed=1)
        fields = FIELD_IDS + ["F003"]
        emb = train_embeddings(
            bags, EmbeddingConfig(dim=8, epochs=10, seed=1), fields, WINDOW
        )
        norms = np.linalg.norm(emb.vectors, axis=1)
        assert np.all(norms <= 1.0 + 1e-12)

    def test_untouched_fields_keep_init(self):
        bags = [np.array([0, 1])] * 10
        fields = FIELD_IDS + ["F003", "F004"]
        config = EmbeddingConfig(dim=4, epochs=2, seed=2,
                                 negatives_per_example=1)
        emb = train_embeddings(bags, config, fields, WINDOW)
        rng = np.random.default_rng(2)
        init = rng.uniform(-1 / 4, 1 / 4, size=(5, 4))
        # fields 0 and 1 are trained; some of 2..4 get hit as negatives, but
        # every vector stays within the max-norm ball
        assert np.all(np.linalg.norm(emb.vectors, axis=1) <= 1 + 1e-12)
        assert emb.vectors.shape == init.shape


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        margin = 0.05
        for _ in range(10):
            a = rng.normal(size=5)
            pos = rng.normal(size=5)
            negs = rng.normal(size=(3, 5))
            loss, g_in, g_pos, g_negs = hinge_loss_and_grads(a, pos, negs, margin)
            if loss == 0:
                continue

            fd_pos = oracles.finite_difference_grad(
                lambda v: hinge_loss_and_grads(a, v, negs, margin)[0], pos
            )
            np.testing.assert_allclose(g_pos, fd_pos, rtol=1e-4, atol=1e-8)

            fd_in = oracles.finite_difference_grad(
                lambda v: hinge_loss_and_grads(v, pos, negs, margin)[0], a
            )
            np.testing.assert_allclose(g_in, fd_in, rtol=1e-4, atol=1e-8)

            for n in range(3):
                def f(v, n=n):
                    nn = negs.copy()
                    nn[n] = v
                    return hinge_loss_and_grads(a, pos, nn, margin)[0]
                fd_neg = oracles.finite_difference_grad(f, negs[n])
                np.testing.assert_allclose(g_negs[n], fd_neg, rtol=1e-4, atol=1e-8)


class TestProximity:
    def _embedding(self, vectors):
        from research_space.emb_model import FieldEmbedding
        return FieldEmbedding(
            vectors=np.asarray(vectors, dtype=float),
            field_ids=[f"F{i:03d}" for i in range(len(vectors))],
            config=EmbeddingConfig(dim=len(vectors[0])),
            window=WINDOW,
        )

    def test_negative_cosine_clipped(self):
        phi = proximity_emb(self._embedding([[1.0, 0.0], [-1.0, 0.3]]))
        assert phi.values[0, 1] == 0.0

    def test_positive_cosine_passthrough(self):
        phi = proximity_emb(self._embedding([[1.0, 0.0], [1.0, 1.0]]))
        assert phi.values[0, 1] == pytest.approx(1 / np.sqrt(2))

    def test_symmetric_with_unit_diagonal(self):
        rng = np.random.default_rng(4)
        phi = proximity_emb(self._embedding(rng.normal(size=(6, 4))))
        np.testing.assert_allclose(phi.values, phi.values.T)
        np.testing.assert_allclose(np.diag(phi.values), 1.0)
        assert phi.is_symmetric

    def test_zero_vector_rows(self):
        phi = proximity_emb(self._embedding([[0.0, 0.0], [1.0, 0.0]]))
        assert phi.values[0, 1] == 0.0
        assert phi.values[0, 0] == 0.0
