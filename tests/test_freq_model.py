import numpy as np
import pytest
from scipy import sparse

import oracles
from research_space.freq_model import copresence, proximity_freq
from research_space.presence import EntityFieldMatrix, TimeWindow


def presence_from_array(arr):
    arr = np.asarray(arr, dtype=np.int8)
    return EntityFieldMatrix(
        values=sparse.csr_matrix(arr),
        entity_ids=[f"s{i}" for i in range(arr.shape[0])],
        field_ids=[f"F{j:03d}" for j in range(arr.shape[1])],
        window=TimeWindow(2000, 2010),
    )


def test_copresence_direct_count():
    p = presence_from_array([[1, 1], [1, 1]])
    m = copresence(p)
    assert m[0, 1] == 2
    assert m[0, 0] == 2


def test_copresence_disjoint():
    p = presence_from_array([[1, 0], [0, 1]])
    m = copresence(p)
    assert m[0, 1] == 0


def test_copresence_matches_bruteforce():
    rng = np.random.default_rng(11)
    arr = (rng.random((20, 6)) < 0.4).astype(int)
    m = copresence(presence_from_array(arr))
    np.testing.assert_array_equal(m, oracles.copresence_bruteforce(arr))


def test_proximity_conditional_fraction():
    # 3 entities present in f' (col 1), 2 of them also in f (col 0)
    p = presence_from_array([[1, 1], [1, 1], [0, 1]])
    phi = proximity_freq(copresence(p), p).values
    assert phi[0, 1] == pytest.approx(2 / 3)
    assert phi[1, 0] == pytest.approx(1.0)


def test_diagonal_is_one_when_present():
    p = presence_from_array([[1, 0], [1, 1]])
    phi = proximity_freq(copresence(p), p).values
    assert phi[0, 0] == 1.0
    assert phi[1, 1] == 1.0


def test_zero_presence_column_convention():
    p = presence_from_array([[1, 0], [1, 0]])
    phi = proximity_freq(copresence(p), p).values
    assert np.all(phi[:, 1] == 0)
    assert phi[1, 1] == 0


def test_bounds_and_bayes_consistency():
    rng = np.random.default_rng(23)
    for _ in range(20):
        arr = (rng.random((15, 7)) < 0.35).astype(int)
        p = presence_from_array(arr)
        phi = proximity_freq(copresence(p), p).values
        assert np.all(phi >= 0) and np.all(phi <= 1)
        counts = arr.sum(axis=0)
        # phi_ff' * n_f' == phi_f'f * n_f (both equal M_ff')
        lhs = phi * counts[None, :]
        np.testing.assert_allclose(lhs, lhs.T, atol=1e-12)


def test_matches_conditional_probability_oracle():
    rng = np.random.default_rng(7)
    arr = (rng.random((25, 8)) < 0.3).astype(int)
    p = presence_from_array(arr)
    phi = proximity_freq(copresence(p), p).values
    np.testing.assert_allclose(phi, oracles.proximity_freq_bruteforce(arr), atol=1e-15)


def test_model_tag_and_asymmetry():
    p = presence_from_array([[1, 1], [0, 1]])
    phi = proximity_freq(copresence(p), p)
    assert phi.model_tag == "frequentist"
    assert not phi.is_symmetric
    assert phi.values[0, 1] != phi.values[1, 0]
