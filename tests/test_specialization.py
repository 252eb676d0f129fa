import numpy as np
import pytest

import oracles
from conftest import make_corpus
from research_space.freq_model import ProximityMatrix
from research_space.presence import (
    EntityFieldMatrix,
    TimeWindow,
    contribution_matrix,
    presence_matrix,
)
from research_space.specialization import (
    Stage,
    TransitionKind,
    classify_stage,
    density,
    indicator,
    rca,
    stage_matrix,
)

WINDOW = TimeWindow(2010, 2010)


def x_from_rows(rows, taxonomy):
    return contribution_matrix(make_corpus(rows), taxonomy, WINDOW)


def test_layers_share_the_id_lists_of_x(taxonomy6):
    x = x_from_rows([
        ("s1", ["F001", "F002"], 1, 2010),
        ("s2", ["F002"], 2, 2010),
    ], taxonomy6)
    phi = ProximityMatrix(np.eye(6), list(taxonomy6.field_ids), "frequentist", WINDOW)
    for kind in TransitionKind:
        omega = density(indicator(rca(x), kind), phi)
        assert omega.entity_ids is x.entity_ids
        assert omega.field_ids is x.field_ids
    p = presence_matrix(x, 0.05)
    assert p.entity_ids is x.entity_ids
    assert p.field_ids is x.field_ids


class TestRca:
    def test_single_entity_all_ones(self, taxonomy6):
        x = x_from_rows([
            ("s1", ["F001"], 1, 2010),
            ("s1", ["F002"], 2, 2010),
        ], taxonomy6)
        r = rca(x)
        assert r.values[0, 0] == pytest.approx(1.0)
        assert r.values[0, 1] == pytest.approx(1.0)
        assert r.values[0, 2] == 0.0

    def test_two_entity_fixture(self, taxonomy6):
        # s1 has all mass in F001; F001 holds 50% of global mass
        x = x_from_rows([
            ("s1", ["F001"], 1, 2010),
            ("s2", ["F002"], 1, 2010),
        ], taxonomy6)
        r = rca(x)
        assert r.values[0, 0] == pytest.approx(2.0)

    def test_zero_contribution_zero_rca(self, taxonomy6):
        x = x_from_rows([
            ("s1", ["F001"], 1, 2010),
            ("s2", ["F002"], 1, 2010),
        ], taxonomy6)
        r = rca(x)
        assert r.values[0, 1] == 0.0

    def test_matches_bruteforce(self, taxonomy6):
        rng = np.random.default_rng(5)
        rows = [
            (f"s{s}", [taxonomy6.field_ids[f]], int(rng.integers(1, 4)), 2010)
            for s in range(10)
            for f in rng.choice(6, size=3, replace=False)
        ]
        x = x_from_rows(rows, taxonomy6)
        np.testing.assert_allclose(
            rca(x).values, oracles.rca_bruteforce(x.values.toarray()), atol=1e-12
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
        d1, d2 = x.values.toarray(), x2.values.toarray()
        np.testing.assert_allclose(d2[0] / d2[0].sum(), d1[0] / d1[0].sum(),
                                   atol=1e-12)
        share1 = d1.sum(axis=0) / d1.sum()
        share2 = d2.sum(axis=0) / d2.sum()
        np.testing.assert_allclose(rca(x2).values * share2,
                                   rca(x).values * share1, rtol=0, atol=1e-12)

    def test_global_scale_invariance(self, taxonomy6):
        rows = [
            ("s1", ["F001", "F002"], 2, 2010),
            ("s2", ["F002"], 1, 2010),
        ]
        x = x_from_rows(rows, taxonomy6)
        base = rca(x).values.copy()
        x.values = x.values * 7.5
        np.testing.assert_allclose(rca(x).values, base, atol=1e-12)


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
        r = EntityFieldMatrix(vals, ["s1"], [f"F{i}" for i in range(6)], WINDOW)
        codes = stage_matrix(r)
        assert list(codes[0]) == ["0", "N", "I", "I", "D", "D"]
        # classification agrees cell by cell with the scalar classifier
        for j in range(6):
            assert codes[0, j] == classify_stage(vals[0, j]).value


class TestIndicator:
    def _r(self, vals):
        vals = np.asarray(vals, dtype=float)
        return EntityFieldMatrix(vals, [f"s{i}" for i in range(vals.shape[0])],
                                 [f"F{j}" for j in range(vals.shape[1])], WINDOW)

    def test_zero_to_active(self):
        u = indicator(self._r([[0.3, 0.0]]), TransitionKind.ZERO_TO_ACTIVE)
        assert list(u.values[0]) == [1, 0]

    def test_to_developed_kinds(self):
        r = self._r([[0.3, 1.2, 1.0]])
        for kind in (TransitionKind.NASCENT_TO_DEVELOPED,
                     TransitionKind.INTERMEDIATE_TO_DEVELOPED):
            u = indicator(r, kind)
            assert list(u.values[0]) == [0, 1, 0]  # strict RCA > 1


class TestDensity:
    def _inputs(self, u_row, phi_vals):
        n = len(u_row)
        fids = [f"F{j}" for j in range(n)]
        u = EntityFieldMatrix(np.array([u_row], dtype=np.int8), ["s1"], fids, WINDOW)
        phi = ProximityMatrix(np.asarray(phi_vals, dtype=float), fids,
                              "frequentist", WINDOW)
        return u, phi

    def test_all_ones(self):
        u, phi = self._inputs([1, 1, 1], np.full((3, 3), 0.5))
        omega = density(u, phi)
        np.testing.assert_allclose(omega.values[0], 1.0)

    def test_all_zeros(self):
        u, phi = self._inputs([0, 0, 0], np.full((3, 3), 0.5))
        omega = density(u, phi)
        np.testing.assert_allclose(omega.values[0], 0.0)

    def test_hand_computed_row(self):
        phi_vals = np.array([
            [1.0, 0.5, 0.25],
            [0.5, 1.0, 0.1],
            [0.25, 0.1, 1.0],
        ])
        u, phi = self._inputs([1, 0, 1], phi_vals)
        omega = density(u, phi)
        # row for F0: (1*1 + 0*0.5 + 1*0.25) / 1.75, diagonal included
        assert omega.values[0, 0] == pytest.approx(1.25 / 1.75)

    def test_zero_phi_row_gives_zero(self):
        phi_vals = np.array([[0.0, 0.0], [0.0, 1.0]])
        u, phi = self._inputs([1, 1], phi_vals)
        omega = density(u, phi)
        assert omega.values[0, 0] == 0.0

    def test_monotone_in_u(self):
        rng = np.random.default_rng(8)
        phi_vals = rng.random((5, 5))
        base_u = [1, 0, 0, 1, 0]
        u0, phi = self._inputs(base_u, phi_vals)
        omega0 = density(u0, phi).values
        for flip in (1, 2, 4):
            u_row = list(base_u)
            u_row[flip] = 1
            u1, _ = self._inputs(u_row, phi_vals)
            omega1 = density(u1, phi).values
            assert np.all(omega1 >= omega0 - 1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            phi_vals = rng.random((4, 4))
            u_row = (rng.random(4) < 0.5).astype(int).tolist()
            u, phi = self._inputs(u_row, phi_vals)
            omega = density(u, phi).values
            assert np.all(omega >= 0) and np.all(omega <= 1 + 1e-12)
