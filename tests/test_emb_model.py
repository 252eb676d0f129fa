import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import dense_hinge
import research_space
from oracles import cosine
from research_space import emb_model
from research_space.emb_model import (
    BATCH_FLOATS,
    EmbeddingConfig,
    bags_per_batch,
    hinge_loss_and_grads,
    proximity_emb,
    train_embeddings,
)
from research_space.errors import ConfigError, TrainingError


def presence_of(bags, n_fields):
    """The int8 presence array whose rows are the bags, in order."""
    p = np.zeros((len(bags), n_fields), dtype=np.int8)
    for i, bag in enumerate(bags):
        p[i, bag] = 1
    return p


def cooccurrence_presence(n=30, seed=0):
    """f0 and f1 always co-occur; f2 appears alone or with a fourth field."""
    rng = np.random.default_rng(seed)
    bags = []
    for i in range(n):
        if rng.random() < 0.5:
            bags.append(np.array([0, 1]))
        else:
            bags.append(np.array([2, 3]))
    return presence_of(bags, 4)


def assert_same_training(emb, vectors, losses):
    np.testing.assert_allclose(emb.vectors, vectors, rtol=0, atol=1e-10)
    np.testing.assert_allclose(emb.epoch_losses, losses, rtol=0, atol=1e-10)


class TestBags:
    def test_bag_sizes(self):
        # the bags are the rows of two fields or more, in row order: an
        # empty or one-field row trains nothing and draws no random number
        p = np.array([[1, 1, 1, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1]],
                     dtype=np.int8)
        config = EmbeddingConfig(dim=4, epochs=3, seed=6)
        emb = train_embeddings(p, config)
        alone = train_embeddings(p[[0, 3]], config)
        np.testing.assert_array_equal(emb.vectors, alone.vectors)
        assert emb.epoch_losses == alone.epoch_losses

        # on a random P: the per-row nonzero columns of the loop trainer
        rng = np.random.default_rng(4)
        arr = (rng.random((40, 9)) < 0.25).astype(np.int8)
        assert_same_training(train_embeddings(arr, config),
                             *oracles.train_embeddings_minibatch_loop(
                                 arr, config, bags_per_batch(config)))

        with pytest.raises(TrainingError):
            train_embeddings(np.zeros((3, 4), dtype=np.int8), config)


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
        for p in ([[1, 0, 0]], np.zeros((0, 3))):
            with pytest.raises(TrainingError):
                train_embeddings(np.asarray(p, dtype=np.int8),
                                 EmbeddingConfig(dim=4, seed=1))

    def test_zero_epochs_keeps_init(self):
        config = EmbeddingConfig(dim=8, epochs=0, seed=5)
        emb = train_embeddings(cooccurrence_presence(), config)
        rng = np.random.default_rng(5)
        expected = rng.uniform(-1 / 8, 1 / 8, size=(4, 8))
        np.testing.assert_array_equal(emb.vectors, expected)

    def test_determinism(self):
        p = cooccurrence_presence()
        config = EmbeddingConfig(dim=8, epochs=3, seed=42)
        a = train_embeddings(p, config)
        b = train_embeddings(p, config)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_planted_cooccurrence_separates(self):
        config = EmbeddingConfig(dim=8, epochs=10, seed=3)
        emb = train_embeddings(cooccurrence_presence(n=40, seed=3), config)
        v = emb.vectors
        assert cosine(v[0], v[1]) > cosine(v[0], v[2])

    def test_epoch_loss_non_increasing(self):
        config = EmbeddingConfig(dim=8, epochs=8, seed=9)
        emb = train_embeddings(cooccurrence_presence(n=40, seed=9), config)
        losses = emb.epoch_losses
        # allow 5% headroom for SGD noise
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier * 1.05 + 1e-9

    def test_max_norm_projection(self):
        emb = train_embeddings(cooccurrence_presence(n=40, seed=1),
                               EmbeddingConfig(dim=8, epochs=10, seed=1))
        norms = np.linalg.norm(emb.vectors, axis=1)
        assert np.all(norms <= 1.0 + 1e-12)

    def test_untouched_fields_keep_init(self):
        p = presence_of([np.array([0, 1])] * 10, 5)
        config = EmbeddingConfig(dim=4, epochs=2, seed=2,
                                 negatives_per_example=1)
        emb = train_embeddings(p, config)
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
            inputs = rng.normal(size=(4, 5))
            targets = rng.normal(size=(4, 4, 5))  # the positive and 3 negatives
            inputs[1] = 0.0  # a zero-norm context mean
            targets[2, 3] = 0.0  # a zero-norm negative
            # a bag with no active negative: cos 1 to its positive, -1 to each negative
            targets[3, 0] = inputs[3]
            targets[3, 1:] = -inputs[3]
            loss, g_in, g_t, _ = dense_hinge(hinge_loss_and_grads, inputs, targets,
                                             margin)
            assert loss[3] == 0.0
            assert not g_in[3].any() and not g_t[3].any()
            # a zero-norm vector has cosine 0 with everything and passes no
            # gradient; the loss is not differentiable there, so skip it
            assert not g_in[1].any() and not g_t[2, 3].any()

            def total(inputs=inputs, targets=targets):
                return hinge_loss_and_grads(inputs, targets, margin)[0].sum()

            fd_in = oracles.finite_difference_grad(lambda v: total(inputs=v), inputs)
            fd_t = oracles.finite_difference_grad(lambda v: total(targets=v), targets)
            fd_in[1] = 0.0
            fd_t[2, 3] = 0.0
            np.testing.assert_allclose(g_in, fd_in, rtol=1e-4, atol=1e-8)
            np.testing.assert_allclose(g_t, fd_t, rtol=1e-4, atol=1e-8)


def random_training_case(seed):
    """A presence array of random bags (a bag of every field for every third
    seed), with at least one trainable bag, and a config."""
    rng = np.random.default_rng(1000 + seed)
    n_fields = int(rng.integers(3, 16))
    bags = [np.sort(rng.choice(n_fields, size=rng.integers(1, n_fields),
                               replace=False))
            for _ in range(rng.integers(2, 15))]
    if seed % 3 == 0:
        bags.append(np.arange(n_fields))  # no field left to sample from
    config = EmbeddingConfig(dim=int(rng.integers(4, 17)),
                             epochs=int(rng.integers(1, 6)),
                             negatives_per_example=int(rng.integers(1, 11)),
                             seed=seed)
    if not any(len(b) >= 2 for b in bags):
        bags.append(np.array([0, n_fields - 1]))
    return presence_of(bags, n_fields), config


class TestAgainstLoopTrainer:
    """The minibatch trainer with one bag per batch against the per-bag,
    per-negative loop (``oracles.train_embeddings_loop``): same RNG stream,
    same updates up to float summation order."""

    @pytest.fixture(autouse=True)
    def one_bag_per_batch(self, monkeypatch):
        monkeypatch.setattr(emb_model, "BATCH_BAGS", 1)

    @pytest.mark.parametrize("seed", range(24))
    def test_vectors_and_losses_match(self, seed):
        p, config = random_training_case(seed)
        assert_same_training(train_embeddings(p, config),
                             *oracles.train_embeddings_loop(p, config))

    def test_bag_of_every_field_is_skipped_in_the_stream(self):
        # only the full bag and one pair: the full bag's step draws its
        # positive and nothing more, as the loop trainer does
        p = presence_of([np.arange(5), np.array([1, 3])], 5)
        config = EmbeddingConfig(dim=6, epochs=4, negatives_per_example=3, seed=8)
        assert_same_training(train_embeddings(p, config),
                             *oracles.train_embeddings_loop(p, config))

    @pytest.mark.parametrize("seed", range(6))
    def test_empty_and_one_field_rows_between_bags(self, seed):
        # the trainable rows of a random case with empty and one-field rows
        # put before, between and after them
        p, config = random_training_case(seed)
        rng = np.random.default_rng(seed)
        filler = presence_of([[] if k % 2 else [int(rng.integers(p.shape[1]))]
                              for k in range(len(p) + 1)], p.shape[1])
        mixed = np.empty((2 * len(p) + 1, p.shape[1]), dtype=np.int8)
        mixed[1::2], mixed[::2] = p, filler
        emb = train_embeddings(mixed, config)
        assert_same_training(emb, *oracles.train_embeddings_loop(mixed, config))
        # the filler rows leave the bags and their order as they were
        alone = train_embeddings(p, config)
        np.testing.assert_array_equal(emb.vectors, alone.vectors)
        assert emb.epoch_losses == alone.epoch_losses

    def test_shifted_draws_equal_setdiff_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n_fields = int(rng.integers(2, 40))
            bag = np.sort(rng.choice(n_fields, size=rng.integers(1, n_fields),
                                     replace=False))
            outside = np.setdiff1d(np.arange(n_fields), bag)
            j = rng.integers(0, n_fields - len(bag), size=20)
            shifted = j + np.searchsorted(bag - np.arange(len(bag)), j, side="right")
            np.testing.assert_array_equal(shifted, outside[j])
            # the same generator state gives the same draws either way
            state = rng.bit_generator.state
            want = rng.choice(outside, size=7, replace=True)
            rng.bit_generator.state = state
            j = rng.integers(0, len(outside), size=7)
            np.testing.assert_array_equal(
                j + np.searchsorted(bag - np.arange(len(bag)), j, side="right"), want)
            state = rng.bit_generator.state
            want = rng.choice(bag)
            rng.bit_generator.state = state
            assert bag[rng.integers(len(bag))] == want

    @pytest.mark.parametrize("margin", [0.05, 5.0, -5.0])
    def test_hinge_matches_loop(self, margin):
        # margin 5 makes every negative active, -5 none
        rng = np.random.default_rng(23)
        for _ in range(20):
            bags, k, dim = rng.integers(1, 6), rng.integers(1, 11), rng.integers(2, 17)
            inputs = rng.normal(size=(bags, dim))
            targets = rng.normal(size=(bags, 1 + k, dim))
            loss, g_in, g_t, terms = dense_hinge(hinge_loss_and_grads, inputs, targets,
                                                 margin)
            left_out = np.ones((bags, 1 + k), dtype=bool)
            left_out[terms] = False
            for b in range(bags):
                want = oracles.hinge_loss_and_grads_loop(
                    inputs[b], targets[b, 0], targets[b, 1:], margin)
                got = (loss[b], g_in[b], g_t[b, 0], g_t[b, 1:])
                for g, w in zip(got, want):
                    np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
                # a target that the function leaves out has no gradient at all
                assert not np.vstack((want[2], want[3]))[left_out[b]].any()
            if margin < 0:
                assert not loss.any()
                assert not len(terms[0]) and not g_in.any()
            if margin == 5.0:
                assert not left_out.any()  # every negative, and each positive

    def test_zero_norm_vector_has_cosine_zero(self):
        # zero positive: every cosine with it is 0, so the hinge is
        # margin + cos(input, neg) for each negative, as with ``cosine``
        a = np.array([[1.0, 0.0]])
        targets = np.array([[[0.0, 0.0], [1.0, 1.0], [-1.0, 0.0]]])
        loss, _, g_t, _ = dense_hinge(hinge_loss_and_grads, a, targets, 0.05)
        with np.errstate(divide="ignore", invalid="ignore"):
            want, *_ = oracles.hinge_loss_and_grads_loop(a[0], targets[0, 0],
                                                         targets[0, 1:], 0.05)
        assert loss[0] == pytest.approx(0.05 + cosine(a[0], targets[0, 1])) == want
        assert not g_t[0, 0].any()


class TestAgainstMinibatchLoop:
    """Batches of several bags against ``oracles.train_embeddings_minibatch_loop``,
    which takes each bag's gradients one at a time with setdiff1d negatives."""

    @pytest.mark.parametrize("batch", [2, 3, 7, 64])
    @pytest.mark.parametrize("seed", range(6))
    def test_vectors_and_losses_match(self, monkeypatch, seed, batch):
        monkeypatch.setattr(emb_model, "BATCH_BAGS", batch)
        p, config = random_training_case(seed)
        assert bags_per_batch(config) == batch
        assert_same_training(train_embeddings(p, config),
                             *oracles.train_embeddings_minibatch_loop(p, config, batch))


@st.composite
def dense_training_cases(draw):
    """A presence array of 2-40 fields holding random bags of two fields or
    more, an empty row, a one-field row and a bag of every field, in a drawn
    order; a config whose margin runs up to 5, where every negative is
    active; and a BATCH_BAGS."""
    n_fields = draw(st.integers(2, 40))
    field_ids = st.integers(0, n_fields - 1)
    bags = draw(st.lists(st.lists(field_ids, min_size=2, max_size=n_fields,
                                  unique=True), min_size=1, max_size=20))
    bags += [[], [draw(field_ids)], list(range(n_fields))]
    order = draw(st.permutations(range(len(bags))))
    config = EmbeddingConfig(dim=draw(st.integers(1, 16)),
                             epochs=draw(st.integers(1, 4)),
                             negatives_per_example=draw(st.integers(1, 10)),
                             margin=draw(st.floats(0.01, 5.0)),
                             seed=draw(st.integers(0, 2**32 - 1)))
    batch = draw(st.sampled_from([1, 3, 128]))
    return presence_of([bags[i] for i in order], n_fields), config, batch


class TestAgainstDenseTrainer:
    """The trainer, whose backward pass takes only the terms of nonzero
    weight, against ``oracles.train_embeddings_dense``, which took every
    (bag, target) pair: the same updates up to float summation order."""

    @given(dense_training_cases())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_vectors_and_losses_match(self, case):
        p, config, batch = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(emb_model, "BATCH_BAGS", batch)
            assert_same_training(train_embeddings(p, config),
                                 *oracles.train_embeddings_dense(p, config))


class TestBatchSize:
    @pytest.mark.parametrize("dim,negatives", [(1, 1), (16, 10), (100, 10),
                                               (BATCH_FLOATS // 2, 1)])
    def test_within_budget_and_at_least_one(self, dim, negatives):
        config = EmbeddingConfig(dim=dim, negatives_per_example=negatives)
        block = (1 + negatives) * dim
        b = bags_per_batch(config)
        assert 1 <= b <= emb_model.BATCH_BAGS
        assert b * block <= BATCH_FLOATS

    @pytest.mark.parametrize("dim,negatives", [(300, 10000), (10**6, 1),
                                               (BATCH_FLOATS // 2 + 1, 1),
                                               (1, BATCH_FLOATS), (10**20, 10)])
    def test_one_bag_over_budget_rejected(self, dim, negatives):
        # one bag's target block would not fit in a batch
        with pytest.raises(ConfigError) as err:
            EmbeddingConfig(dim=dim, negatives_per_example=negatives)
        assert f"negatives_per_example {negatives})" in str(err.value)
        assert f"dim {dim} floats" in str(err.value)


class TestProximity:
    def test_negative_cosine_clipped(self):
        phi = proximity_emb(np.array([[1.0, 0.0], [-1.0, 0.3]]))
        assert phi[0, 1] == 0.0

    def test_positive_cosine_passthrough(self):
        phi = proximity_emb(np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert phi[0, 1] == pytest.approx(1 / np.sqrt(2))

    def test_symmetric_with_unit_diagonal(self):
        rng = np.random.default_rng(4)
        phi = proximity_emb(rng.normal(size=(6, 4)))
        # exactly symmetric, as load_proximity demands of an embedding matrix
        np.testing.assert_array_equal(phi, phi.T)
        np.testing.assert_allclose(np.diag(phi), 1.0)

    def test_zero_vector_rows(self):
        phi = proximity_emb(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert phi[0, 1] == 0.0
        assert phi[0, 0] == 0.0

    @given(st.integers(1, 30), st.integers(1, 130), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_exactly_symmetric_and_zero_rows_positive_zero(self, n_fields, dim, seed):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n_fields, dim))
        vectors[rng.random(n_fields) < 0.2] = 0.0
        phi = proximity_emb(vectors)
        assert phi.tobytes() == phi.T.copy().tobytes()
        zero = ~vectors.any(axis=1)
        assert not np.signbit(phi[zero]).any()
        assert not phi[zero].any()


# Prints the sha256 of proximity_emb of seeded (250, 100) vectors.
PROXIMITY_HASH = """import hashlib
import numpy as np
from research_space.emb_model import proximity_emb
vectors = np.random.default_rng(3).normal(size=(250, 100))
print(hashlib.sha256(proximity_emb(vectors).tobytes()).hexdigest())
"""


def test_proximity_bytes_do_not_depend_on_blas_threads():
    src = str(Path(research_space.__file__).resolve().parents[1])
    hashes = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        res = subprocess.run([sys.executable, "-c", PROXIMITY_HASH], env=env,
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        hashes.add(res.stdout)
    assert len(hashes) == 1, hashes


# Prints the sha256 of the vectors trained on a seeded random 2,000 x 250 P.
TRAINER_HASH = """import hashlib
import numpy as np
from research_space.emb_model import EmbeddingConfig, train_embeddings
p = (np.random.default_rng(5).random((2000, 250)) < 0.02).astype(np.int8)
emb = train_embeddings(p, EmbeddingConfig(dim=100, epochs=2, seed=7))
print(hashlib.sha256(emb.vectors.tobytes()).hexdigest())
"""


def test_trainer_bytes_do_not_depend_on_blas_threads():
    src = str(Path(research_space.__file__).resolve().parents[1])
    hashes = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        res = subprocess.run([sys.executable, "-c", TRAINER_HASH], env=env,
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        hashes.add(res.stdout)
    assert len(hashes) == 1, hashes
