import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import same_bits
from research_space.freq_model import _BLOCK_ROWS, copresence, proximity_freq


def presence_from_array(arr):
    return np.asarray(arr, dtype=np.int8)


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


def test_copresence_exact_across_row_blocks():
    # more rows than one block, and a last block that is only partly filled
    rng = np.random.default_rng(12)
    arr = (rng.random((2 * _BLOCK_ROWS + 123, 7)) < 0.6).astype(np.int8)
    m = copresence(presence_from_array(arr))
    brute = arr.astype(np.int64)
    assert m.dtype == np.int64
    np.testing.assert_array_equal(m, brute.T @ brute)


def test_proximity_conditional_fraction():
    # 3 entities present in f' (col 1), 2 of them also in f (col 0)
    p = presence_from_array([[1, 1], [1, 1], [0, 1]])
    phi = proximity_freq(copresence(p))
    assert phi[0, 1] == pytest.approx(2 / 3)
    assert phi[1, 0] == pytest.approx(1.0)


def test_diagonal_is_one_when_present():
    p = presence_from_array([[1, 0], [1, 1]])
    phi = proximity_freq(copresence(p))
    assert phi[0, 0] == 1.0
    assert phi[1, 1] == 1.0


def test_zero_presence_column_convention():
    p = presence_from_array([[1, 0], [1, 0]])
    phi = proximity_freq(copresence(p))
    assert np.all(phi[:, 1] == 0)
    assert phi[1, 1] == 0


def test_bounds_and_bayes_consistency():
    rng = np.random.default_rng(23)
    for _ in range(20):
        arr = (rng.random((15, 7)) < 0.35).astype(int)
        p = presence_from_array(arr)
        phi = proximity_freq(copresence(p))
        assert np.all(phi >= 0) and np.all(phi <= 1)
        counts = arr.sum(axis=0)
        # phi_ff' * n_f' == phi_f'f * n_f (both equal M_ff')
        lhs = phi * counts[None, :]
        np.testing.assert_allclose(lhs, lhs.T, atol=1e-12)


def test_matches_conditional_probability_oracle():
    rng = np.random.default_rng(7)
    arr = (rng.random((25, 8)) < 0.3).astype(int)
    p = presence_from_array(arr)
    phi = proximity_freq(copresence(p))
    np.testing.assert_allclose(phi, oracles.proximity_freq_bruteforce(arr), atol=1e-15)


def test_model_tag_and_asymmetry():
    # fit tags this matrix "frequentist" (tested with the CLI); the backbone
    # refuses it because it is directed
    p = presence_from_array([[1, 1], [0, 1]])
    phi = proximity_freq(copresence(p))
    assert phi[0, 1] != phi[1, 0]


@given(st.integers(1, 40), st.integers(1, 12), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1))
@example(3, 4, 0.0, 0)  # every column without a present entity
@settings(max_examples=200, deadline=None)
def test_matches_presence_count_body_bit_for_bit(n_entities, n_fields, share, seed):
    rng = np.random.default_rng(seed)
    p = presence_from_array(rng.random((n_entities, n_fields)) < share)
    p[:, rng.random(n_fields) < 0.3] = 0  # some all-zero columns
    m = copresence(p)
    assert same_bits(proximity_freq(m), oracles.proximity_freq_by_presence(m, p))
