import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from conftest import make_corpus, same_bits
from research_space.presence import TimeWindow, contribution_matrix
from oracles import Stage, classify_stage, stage_matrix
from research_space.errors import ConfigError
from research_space.specialization import (
    TransitionKind,
    density,
    indicator,
    rca,
)

WINDOW = TimeWindow(2010, 2010)

# Values of X and phi cells: zeros of both signs, and negatives that make a
# row or column sum zero or below.
CELLS = st.sampled_from([0.0, -0.0, 0.0, 0.5, 1.0, 3.25, 0.1, -0.5, -1.0])
MATRICES = hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                   min_side=0, max_side=7),
                      elements=CELLS)


@st.composite
def indicator_and_phi(draw):
    """An entity x field indicator array and a field x field phi."""
    n = draw(st.integers(1, 7))
    u = draw(hnp.arrays(np.int8, (draw(st.integers(0, 5)), n),
                        elements=st.integers(0, 1)))
    return u, draw(hnp.arrays(np.float64, (n, n), elements=CELLS))


def x_from_rows(rows, taxonomy):
    """The X array of the rows, entities in order of their first record."""
    return contribution_matrix(make_corpus(rows), taxonomy, WINDOW)


class TestRca:
    def test_single_entity_all_ones(self, taxonomy6):
        x = x_from_rows([
            ("s1", ["F001"], 1, 2010),
            ("s1", ["F002"], 2, 2010),
        ], taxonomy6)
        r = rca(x)
        assert r[0, 0] == pytest.approx(1.0)
        assert r[0, 1] == pytest.approx(1.0)
        assert r[0, 2] == 0.0

    def test_two_entity_fixture(self, taxonomy6):
        # s1 has all mass in F001; F001 holds 50% of global mass
        x = x_from_rows([
            ("s1", ["F001"], 1, 2010),
            ("s2", ["F002"], 1, 2010),
        ], taxonomy6)
        r = rca(x)
        assert r[0, 0] == pytest.approx(2.0)

    def test_zero_contribution_zero_rca(self, taxonomy6):
        x = x_from_rows([
            ("s1", ["F001"], 1, 2010),
            ("s2", ["F002"], 1, 2010),
        ], taxonomy6)
        r = rca(x)
        assert r[0, 1] == 0.0

    def test_matches_bruteforce(self, taxonomy6):
        rng = np.random.default_rng(5)
        rows = [
            (f"s{s}", [taxonomy6.field_ids[f]], int(rng.integers(1, 4)), 2010)
            for s in range(10)
            for f in rng.choice(6, size=3, replace=False)
        ]
        x = x_from_rows(rows, taxonomy6)
        np.testing.assert_allclose(
            rca(x), oracles.rca_bruteforce(x), atol=1e-12
        )

    def test_row_share_invariant_under_entity_scaling(self, taxonomy6):
        # the within-entity factor of the index (RCA * global share) ignores
        # row scale exactly; RCA itself does not, as x_f / x moves with the row
        rows = [
            ("s1", ["F001"], 1, 2010),
            ("s1", ["F002"], 2, 2010),
            ("s2", ["F002"], 1, 2010),
            ("s2", ["F003"], 1, 2010),
        ]
        x = x_from_rows(rows, taxonomy6)
        scaled_rows = rows + [r for r in rows if r[0] == "s1"] * 2
        x2 = x_from_rows(scaled_rows, taxonomy6)
        d1, d2 = x, x2
        np.testing.assert_allclose(d2[0] / d2[0].sum(), d1[0] / d1[0].sum(),
                                   atol=1e-12)
        share1 = d1.sum(axis=0) / d1.sum()
        share2 = d2.sum(axis=0) / d2.sum()
        np.testing.assert_allclose(rca(x2) * share2,
                                   rca(x) * share1, rtol=0, atol=1e-12)

    def test_global_scale_invariance(self, taxonomy6):
        rows = [
            ("s1", ["F001", "F002"], 2, 2010),
            ("s2", ["F002"], 1, 2010),
        ]
        x = x_from_rows(rows, taxonomy6)
        base = rca(x).copy()
        np.testing.assert_allclose(rca(x * 7.5), base, atol=1e-12)

    @given(MATRICES)
    @example(np.array([[1.0, 0.0], [0.0, 0.0]]))  # a zero-mass row, a zero-share field
    @example(np.array([[-0.0, 2.0], [0.0, 0.0]]))
    @example(np.array([[1.0, -1.0], [0.5, 1.0]]))  # a zero-share field with mass
    @example(np.zeros((0, 3)))
    @settings(max_examples=300, deadline=None)
    def test_equals_gather_scatter_oracle_bit_for_bit(self, x):
        try:
            expected = oracles.rca_ix(x)
        except ConfigError:
            with pytest.raises(ConfigError, match="mass is zero"):
                rca(x)
            return
        assert same_bits(rca(x), expected)


class TestStages:
    @pytest.mark.parametrize("value,expected", [
        (0.0, Stage.INACTIVE),
        (0.3, Stage.NASCENT),
        (0.499999, Stage.NASCENT),
        (0.5, Stage.INTERMEDIATE),
        (0.999999, Stage.INTERMEDIATE),
        (1.0, Stage.DEVELOPED),
        (3.2, Stage.DEVELOPED),
    ])
    def test_boundaries(self, value, expected):
        assert classify_stage(value) is expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_stage(-0.1)

    def test_stage_matrix_partition(self):
        vals = np.array([[0.0, 0.3, 0.5, 0.99, 1.0, 2.0]])
        codes = stage_matrix(vals)
        assert list(codes[0]) == ["0", "N", "I", "I", "D", "D"]
        # classification agrees cell by cell with the scalar classifier
        for j in range(6):
            assert codes[0, j] == classify_stage(vals[0, j]).value


class TestIndicator:
    def test_zero_to_active(self):
        u = indicator(np.array([[0.3, 0.0]]), TransitionKind.ZERO_TO_ACTIVE)
        assert list(u[0]) == [1, 0]

    def test_to_developed_kinds(self):
        r = np.array([[0.3, 1.2, 1.0]])
        for kind in (TransitionKind.NASCENT_TO_DEVELOPED,
                     TransitionKind.INTERMEDIATE_TO_DEVELOPED):
            u = indicator(r, kind)
            assert list(u[0]) == [0, 1, 0]  # strict RCA > 1


class TestDensity:
    def _inputs(self, u_row, phi_vals):
        return np.array([u_row], dtype=np.int8), np.asarray(phi_vals, dtype=float)

    def test_all_ones(self):
        u, phi = self._inputs([1, 1, 1], np.full((3, 3), 0.5))
        omega = density(u, phi)
        np.testing.assert_allclose(omega[0], 1.0)

    def test_all_zeros(self):
        u, phi = self._inputs([0, 0, 0], np.full((3, 3), 0.5))
        omega = density(u, phi)
        np.testing.assert_allclose(omega[0], 0.0)

    def test_hand_computed_row(self):
        phi_vals = np.array([
            [1.0, 0.5, 0.25],
            [0.5, 1.0, 0.1],
            [0.25, 0.1, 1.0],
        ])
        u, phi = self._inputs([1, 0, 1], phi_vals)
        omega = density(u, phi)
        # row for F0: (1*1 + 0*0.5 + 1*0.25) / 1.75, diagonal included
        assert omega[0, 0] == pytest.approx(1.25 / 1.75)

    def test_zero_phi_row_gives_zero(self):
        phi_vals = np.array([[0.0, 0.0], [0.0, 1.0]])
        u, phi = self._inputs([1, 1], phi_vals)
        omega = density(u, phi)
        assert omega[0, 0] == 0.0

    def test_monotone_in_u(self):
        rng = np.random.default_rng(8)
        phi_vals = rng.random((5, 5))
        base_u = [1, 0, 0, 1, 0]
        u0, phi = self._inputs(base_u, phi_vals)
        omega0 = density(u0, phi)
        for flip in (1, 2, 4):
            u_row = list(base_u)
            u_row[flip] = 1
            u1, _ = self._inputs(u_row, phi_vals)
            omega1 = density(u1, phi)
            assert np.all(omega1 >= omega0 - 1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            phi_vals = rng.random((4, 4))
            u_row = (rng.random(4) < 0.5).astype(int).tolist()
            u, phi = self._inputs(u_row, phi_vals)
            omega = density(u, phi)
            assert np.all(omega >= 0) and np.all(omega <= 1 + 1e-12)

    @given(indicator_and_phi())
    @example((np.ones((2, 2), np.int8), np.array([[0.5, -0.5], [1.0, 0.0]])))
    @example((np.ones((1, 2), np.int8), np.array([[-1.0, 0.5], [0.0, -0.0]])))
    @settings(max_examples=300, deadline=None)
    def test_equals_gather_scatter_oracle_bit_for_bit(self, case):
        """phi rows summing to zero or below, as embedding cosines can."""
        u, phi = case
        assert same_bits(density(u, phi), oracles.density_ix(u, phi))
