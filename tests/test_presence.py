import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_taxonomy
from oracles import contribution_matrix_loop
from research_space.errors import ConfigError
from research_space.presence import (
    TimeWindow,
    check_windows,
    contribution_matrix,
    presence_matrix,
)


def test_window_parse_and_contains():
    w = TimeWindow.parse("1999:2013")
    years = np.array([1998, 1999, 2013, 2014])
    assert w.mask(years).tolist() == [False, True, True, False]
    assert w.span == 15


def test_window_rejects_reversed():
    with pytest.raises(ConfigError):
        TimeWindow(2010, 2000)


def test_window_config_valid():
    check_windows(TimeWindow(1999, 2013), TimeWindow(2011, 2013), TimeWindow(2014, 2016))


@pytest.mark.parametrize("fit,rca,test", [
    ("1999:2012", "2011:2013", "2014:2016"),  # different end years
    ("1999:2013", "2011:2013", "2015:2017"),  # gap before test
    ("2012:2013", "2009:2013", "2014:2016"),  # fit span < rca span
    ("1999:2013", "2011:2013", "2012:2014"),  # test overlaps fit and rca
])
def test_window_config_invalid(fit, rca, test):
    with pytest.raises(ConfigError):
        check_windows(*(TimeWindow.parse(w) for w in (fit, rca, test)))


def assert_matches_record_loop(rows, taxonomy, window):
    """X equals the record loop's array bit for bit on the rows of the
    entities with a record in the window, matched by entity id, and is zero
    on every other row."""
    corpus = make_corpus(rows)
    x = contribution_matrix(corpus, taxonomy, window)
    expected, entity_ids = contribution_matrix_loop(rows, taxonomy, window)
    assert x.dtype == expected.dtype
    assert x.shape == (len(corpus.entity_ids), len(taxonomy))
    in_window = [corpus.entity_ids.index(eid) for eid in entity_ids]
    assert x[in_window].tobytes() == expected.tobytes()
    assert not np.delete(x, in_window, axis=0).any()


class TestContributionMatrix:
    def test_single_record_split_mass(self, taxonomy6):
        corpus = make_corpus([("s1", ["F001", "F002"], 2, 2010)])
        x = contribution_matrix(corpus, taxonomy6, TimeWindow(2010, 2010))
        assert x[0, 0] == pytest.approx(0.25)
        assert x[0, 1] == pytest.approx(0.25)
        assert x.sum() == pytest.approx(0.5)

    def test_identity_case(self, taxonomy6):
        corpus = make_corpus([("s1", ["F001"], 1, 2010)])
        x = contribution_matrix(corpus, taxonomy6, TimeWindow(2010, 2010))
        assert x[0, 0] == 1.0

    def test_additivity_of_duplicates(self, taxonomy6):
        one = make_corpus([("s1", ["F001", "F003"], 3, 2010)])
        two = make_corpus([("s1", ["F001", "F003"], 3, 2010)] * 2)
        x1 = contribution_matrix(one, taxonomy6, TimeWindow(2010, 2010))
        x2 = contribution_matrix(two, taxonomy6, TimeWindow(2010, 2010))
        np.testing.assert_allclose(x2, 2 * x1)

    def test_window_filters_years(self, taxonomy6):
        corpus = make_corpus([
            ("s1", ["F001"], 1, 2005),
            ("s1", ["F002"], 1, 2010),
        ])
        x = contribution_matrix(corpus, taxonomy6, TimeWindow(2008, 2012))
        assert x[0, 0] == 0
        assert x[0, 1] == 1.0

    def test_empty_window_is_valid(self, taxonomy6):
        corpus = make_corpus([("s1", ["F001"], 1, 2005)])
        x = contribution_matrix(corpus, taxonomy6, TimeWindow(1990, 1991))
        assert x.shape == (1, 6) and not x.any()

    def test_mass_conservation(self, taxonomy6):
        # total mass equals sum over records of 1/n_p
        rows = [
            ("s1", ["F001", "F002", "F003"], 2, 2010),
            ("s2", ["F004"], 5, 2010),
            ("s1", ["F002"], 1, 2011),
        ]
        corpus = make_corpus(rows)
        x = contribution_matrix(corpus, taxonomy6, TimeWindow(2010, 2011))
        assert x.sum() == pytest.approx(1 / 2 + 1 / 5 + 1)

    def test_disjoint_window_additivity(self, taxonomy6):
        rows = [("s1", ["F001"], 1, y) for y in range(2000, 2010)]
        rows += [("s2", ["F002", "F003"], 2, y) for y in range(2003, 2008)]
        corpus = make_corpus(rows)
        whole = contribution_matrix(corpus, taxonomy6, TimeWindow(2000, 2009))
        left = contribution_matrix(corpus, taxonomy6, TimeWindow(2000, 2004))
        right = contribution_matrix(corpus, taxonomy6, TimeWindow(2005, 2009))
        # every window has the corpus's entity axis, so the rows line up
        np.testing.assert_allclose(left + right, whole)

    @given(st.lists(st.tuples(st.integers(0, 6),
                              st.lists(st.integers(0, 5), min_size=1, max_size=3),
                              st.integers(1, 15), st.integers(2000, 2009)),
                    max_size=60),
           st.integers(2000, 2009), st.integers(0, 9))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_record_loop(self, records, start, span):
        taxonomy = make_taxonomy(6)
        rows = [(f"e{e}", [taxonomy.field_ids[f] for f in fields], n, y)
                for e, fields, n, y in records]
        window = TimeWindow(start, start + span)
        assert_matches_record_loop(rows, taxonomy, window)

    def test_many_records_per_entity_summed_in_record_order(self):
        # rows of 60 records, well past the lengths at which a sort of each
        # row's cells (as scipy's sum_duplicates does) reorders the additions
        taxonomy = make_taxonomy(6)
        rng = np.random.default_rng(1)
        rows = [(f"e{rng.integers(2)}",
                 [taxonomy.field_ids[f]
                  for f in rng.choice(6, int(rng.integers(1, 4)), replace=False)],
                 int(rng.integers(1, 16)), 2010)
                for _ in range(120)]
        assert_matches_record_loop(rows, taxonomy, TimeWindow(2010, 2010))

    def test_unknown_field_rejected_inside_window_only(self, taxonomy6):
        corpus = make_corpus([("s1", ["F001"], 1, 2010),
                              ("s1", ["F001", "F999"], 1, 2005)])
        assert contribution_matrix(corpus, taxonomy6, TimeWindow(2010, 2010)).any()
        with pytest.raises(ConfigError, match="F999"):
            contribution_matrix(corpus, taxonomy6, TimeWindow(2005, 2010))


class TestPresenceMatrix:
    def _x(self, taxonomy, value):
        corpus = make_corpus([("s1", ["F001"], 1, 2010)] * 1)
        x = contribution_matrix(corpus, taxonomy, TimeWindow(2010, 2010))
        return x * value

    def test_above_threshold(self, taxonomy6):
        p = presence_matrix(self._x(taxonomy6, 0.06), theta=0.05)
        assert p.dtype == np.int8
        assert p[0, 0] == 1

    def test_strict_inequality_at_boundary(self, taxonomy6):
        p = presence_matrix(self._x(taxonomy6, 0.05), theta=0.05)
        assert p[0, 0] == 0

    def test_invalid_theta(self, taxonomy6):
        for theta in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                presence_matrix(self._x(taxonomy6, 1.0), theta=theta)

    def test_theta_sweep_monotone(self, taxonomy6):
        rng = np.random.default_rng(3)
        rows = []
        for s in range(15):
            for f in rng.choice(6, size=3, replace=False):
                rows.append((f"s{s}", [taxonomy6.field_ids[f]],
                             int(rng.integers(1, 5)), 2010))
        corpus = make_corpus(rows)
        x = contribution_matrix(corpus, taxonomy6, TimeWindow(2010, 2010))
        counts = [
            presence_matrix(x, theta).sum()
            for theta in (0.025, 0.05, 0.10, 0.20, 0.40)
        ]
        assert counts == sorted(counts, reverse=True)

    @given(st.floats(0.01, 0.5), st.floats(0.01, 0.5), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_presence_subset_property(self, t1, t2, seed):
        taxonomy = make_taxonomy(4)
        rng = np.random.default_rng(seed)
        rows = [
            (f"s{s}", [taxonomy.field_ids[f]], int(rng.integers(1, 6)), 2010)
            for s in range(8)
            for f in rng.choice(4, size=2, replace=False)
        ]
        x = contribution_matrix(make_corpus(rows), taxonomy, TimeWindow(2010, 2010))
        lo, hi = sorted((t1, t2))
        p_lo = presence_matrix(x, lo)
        p_hi = presence_matrix(x, hi)
        assert np.all(p_hi <= p_lo)
