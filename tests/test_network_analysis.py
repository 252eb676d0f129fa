import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from conftest import make_taxonomy, same_bits
from research_space.corpus import FieldTaxonomy, Intermediate, TaxonomyField
from research_space.errors import ConfigError
from research_space.freq_model import ProximityMatrix
from research_space.network_analysis import (
    aggregate_to_intermediate,
    disparity_filter,
    disparity_pvalue,
    export_dot,
    export_edgelist,
    export_graphml,
    greedy_communities,
    mst_plus_threshold,
    node_styles,
    proximity_graph,
)
from research_space.presence import TimeWindow

WINDOW = TimeWindow(2003, 2007)


def sym_phi(values, field_ids=None):
    values = np.asarray(values, dtype=float)
    fids = field_ids or [f"F{i + 1:03d}" for i in range(values.shape[0])]
    return ProximityMatrix(values, fids, "embedding", WINDOW)


class TestAggregation:
    def test_singleton_intermediates(self):
        taxonomy = make_taxonomy(2, fields_per_intermediate=1)
        phi = sym_phi([[1.0, 0.42], [0.42, 1.0]])
        ids, agg = aggregate_to_intermediate(phi.values, taxonomy)
        assert ids == ["I1", "I2"]
        assert agg[0, 1] == pytest.approx(0.42)
        # a singleton intermediate has no off-diagonal pair
        assert agg[0, 0] == 0.0

    def test_hand_mean(self):
        # I1 = {F001}, I2 = {F002, F003}; cross values 0.2 and 0.4
        taxonomy = make_taxonomy(3, fields_per_intermediate=2)
        # reshape membership: F001,F002 -> I1; F003 -> I2 per make_taxonomy;
        # use values accordingly: cross pairs (F001,F003)=0.2, (F002,F003)=0.4
        vals = np.array([
            [1.0, 0.9, 0.2],
            [0.9, 1.0, 0.4],
            [0.2, 0.4, 1.0],
        ])
        _, agg = aggregate_to_intermediate(sym_phi(vals).values, taxonomy)
        assert agg[0, 1] == pytest.approx(0.3)
        assert agg[0, 0] == pytest.approx(0.9)  # within-I1 pair mean

    def test_symmetric_output(self):
        taxonomy = make_taxonomy(6, fields_per_intermediate=3)
        rng = np.random.default_rng(0)
        a = rng.random((6, 6))
        phi = sym_phi((a + a.T) / 2)
        _, agg = aggregate_to_intermediate(phi.values, taxonomy)
        np.testing.assert_allclose(agg, agg.T)
        # proximity_graph relies on exact symmetry
        assert (agg == agg.T).all()


def graph(edges, ids=None):
    """(weight array, ids) of the undirected ``edges`` (u, v, weight). The
    axis holds ``ids``, or else the nodes in order of first appearance."""
    ids = list(ids or dict.fromkeys(u for e in edges for u in e[:2]))
    index = {u: i for i, u in enumerate(ids)}
    w = np.zeros((len(ids), len(ids)))
    for u, v, weight in edges:
        w[index[u], index[v]] = w[index[v], index[u]] = weight
    return w, ids


def edge_set(w, ids):
    """The edges of a weight array as frozensets of node ids."""
    return {frozenset((ids[i], ids[j])) for i, j in zip(*np.nonzero(np.triu(w, 1)))}


def n_edges(w):
    return np.count_nonzero(np.triu(w, 1))


def triangle(w12=3.0, w13=2.0, w23=1.0):
    return graph([("a", "b", w12), ("a", "c", w13), ("b", "c", w23)])


class TestMstPlusThreshold:
    def test_mst_only(self):
        kept = mst_plus_threshold(triangle()[0], p=float("inf"))
        assert sorted(kept[np.nonzero(np.triu(kept, 1))]) == [2.0, 3.0]

    def test_threshold_vacuous(self):
        kept = mst_plus_threshold(triangle()[0], p=0.0)
        assert n_edges(kept) == 3

    def test_spans_every_component(self):
        w, ids = graph([("a", "b", 3.0), ("a", "c", 2.0), ("b", "c", 1.0),
                        ("x", "y", 0.1)])
        kept = mst_plus_threshold(w, p=float("inf"))
        assert (nx.number_connected_components(oracles.nx_graph(kept, ids))
                == nx.number_connected_components(oracles.nx_graph(w, ids)))
        assert kept[ids.index("x"), ids.index("y")] == 0.1

    def test_nan_threshold_rejected(self):
        with pytest.raises(ConfigError):
            mst_plus_threshold(triangle()[0], p=float("nan"))


class TestDisparityFilter:
    def test_degree_two_equal_weights(self):
        # p = (1 - 0.5)^1 = 0.5 from the middle node
        w, _ = graph([("m", "a", 1.0), ("m", "b", 1.0)])
        assert disparity_pvalue(1.0, 2.0, 2) == pytest.approx(0.5, abs=1e-12)
        assert n_edges(disparity_filter(w, alpha=0.6)) == 2
        assert n_edges(disparity_filter(w, alpha=0.4)) == 0

    def test_dominant_star_edge(self):
        w, ids = graph([("hub", "big", 0.97)]
                       + [("hub", f"leaf{i}", 0.03 / 9) for i in range(9)])
        p = disparity_pvalue(0.97, 1.0, 10)
        assert p == pytest.approx(0.03 ** 9, rel=1e-12)
        kept = disparity_filter(w, alpha=0.05)
        assert kept[ids.index("hub"), ids.index("big")] == 0.97

    def test_degree_one_convention(self):
        w, _ = graph([("a", "b", 5.0)])
        assert disparity_pvalue(5.0, 5.0, 1) == 1.0
        # both endpoints have degree 1 -> p = 1 from both sides, never kept
        assert n_edges(disparity_filter(w, alpha=0.99)) == 0

    def test_pvalue_is_elementwise(self):
        np.testing.assert_array_equal(
            disparity_pvalue(np.array([1.0, 0.97, 5.0]), np.array([2.0, 1.0, 5.0]),
                             np.array([2, 10, 1])),
            [(1 - 1.0 / 2.0) ** 1, (1 - 0.97 / 1.0) ** 9, 1.0])

    def test_pvalue_rounds_as_python_pow(self):
        rng = np.random.default_rng(3)
        weight, strength = rng.random(2000), 1.0 + rng.random(2000)
        degree = rng.integers(2, 250, 2000)
        np.testing.assert_array_equal(
            disparity_pvalue(weight, strength, degree),
            [(1.0 - x / s) ** (int(k) - 1) for x, s, k in zip(weight, strength, degree)])

    def test_alpha_validation(self):
        with pytest.raises(ConfigError):
            disparity_filter(triangle()[0], alpha=0.0)
        with pytest.raises(ConfigError):
            disparity_filter(triangle()[0], alpha=1.0)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(5)
        upper = np.triu(rng.random((12, 12)) < 0.5, 1) * (rng.random((12, 12)) + 0.01)
        w = upper + upper.T
        prev = set()
        for alpha in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95):
            edges = edge_set(disparity_filter(w, alpha), range(12))
            assert prev <= edges
            prev = edges

    def test_nodes_preserved(self):
        w, _ = triangle()
        kept = disparity_filter(w, alpha=0.01)
        assert kept.shape == w.shape
        np.testing.assert_array_equal(kept, kept.T)


def two_cliques(k=4, bridge_weight=1.0):
    """Two k-cliques of unit weight, N00..N(k-1) and Nk..N(2k-1), joined by
    one edge N00-Nk."""
    w = np.kron(np.eye(2), np.ones((k, k))) - np.eye(2 * k)
    w[0, k] = w[k, 0] = bridge_weight
    return w, [f"N{i:02d}" for i in range(2 * k)]


def nx_weights(g):
    """(weight array, ids) of a networkx graph on nodes 0..n-1, edges without
    a weight weighing 1."""
    n = g.number_of_nodes()
    return nx.to_numpy_array(g, nodelist=range(n)), [f"N{i:02d}" for i in range(n)]


class TestGreedyCommunities:
    def test_two_cliques_recovered(self):
        labels, _ = greedy_communities(two_cliques()[0])
        comms = {frozenset(np.flatnonzero(labels == cid).tolist())
                 for cid in set(labels.tolist())}
        assert comms == {frozenset(range(4)), frozenset(range(4, 8))}
        # a community's id is the axis position of its first node
        assert labels.tolist() == [0] * 4 + [4] * 4

    def test_single_clique_one_community(self):
        labels, _ = greedy_communities(np.ones((5, 5)) - np.eye(5))
        assert len(set(labels.tolist())) == 1

    def test_disconnected_components_stay_apart(self):
        labels, _ = greedy_communities(graph([("a", "b", 1.0), ("c", "d", 1.0)])[0])
        assert labels[0] != labels[2]

    def test_q_beats_singleton_partition(self):
        w = two_cliques()[0]
        _, q = greedy_communities(w)
        assert q >= oracles.modularity_pairwise(w, np.arange(len(w)))

    def test_near_optimal_on_small_graphs(self):
        graphs = [
            two_cliques(3),
            two_cliques(4),
            nx_weights(nx.path_graph(6)),
            nx_weights(nx.cycle_graph(7)),
            nx_weights(nx.karate_club_graph().subgraph(range(8))),
        ]
        for w, _ in graphs:
            if not w.any():
                continue
            _, q = greedy_communities(w)
            best = oracles.max_modularity_exhaustive(w, oracles.modularity_pairwise)
            assert q >= best - 0.05

    def test_empty_graph_rejected(self):
        with pytest.raises(ConfigError):
            greedy_communities(np.zeros((0, 0)))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_modularity_matches_pairwise_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        # nodes left without edges stay isolated
        upper = np.triu(rng.random((n, n)) < 0.4, 1) * rng.uniform(0.01, 5.0, (n, n))
        w = upper + upper.T
        labels, q = greedy_communities(w)
        assert q == pytest.approx(
            oracles.modularity_pairwise(w, labels), abs=1e-12
        )

    def test_deterministic(self):
        a, _ = greedy_communities(two_cliques()[0])
        b, _ = greedy_communities(two_cliques()[0])
        np.testing.assert_array_equal(a, b)


@st.composite
def weighted_graphs(draw):
    """(weight array, ids) of up to 30 nodes in up to 3 components, with
    continuous weights, unit weights (ties everywhere) or weights 1-3, some
    nodes isolated, and ids in sorted or shuffled order on the axis."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    component = rng.integers(0, draw(st.integers(1, 3)), n)
    isolated = rng.random(n) < draw(st.sampled_from([0.0, 0.2]))
    linked = ((component[:, None] == component[None, :])
              & ~isolated[:, None] & ~isolated[None, :]
              & (rng.random((n, n)) < draw(st.sampled_from([0.15, 0.4, 0.8]))))
    weights = draw(st.sampled_from([
        rng.uniform(0.01, 5.0, (n, n)), np.ones((n, n)), rng.integers(1, 4, (n, n))]))
    upper = np.triu(linked, 1) * weights
    ids = [f"F{i:03d}" for i in range(n)]
    if draw(st.booleans()):
        ids = [ids[i] for i in rng.permutation(n)]
    return upper + upper.T, ids


class TestNetworkxParity:
    """The array layers against the networkx-graph layers they replaced."""

    @given(weighted_graphs(), st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_disparity_filter_keeps_the_reference_edges(self, graph_ids, alpha):
        w, ids = graph_ids
        reference = oracles.disparity_filter_nx(oracles.nx_graph(w, ids), alpha)
        assert edge_set(disparity_filter(w, alpha), ids) == {
            frozenset(e) for e in reference.edges()}

    @given(weighted_graphs(), st.floats(0.0, 6.0))
    @settings(max_examples=200, deadline=None)
    def test_mst_plus_threshold_keeps_the_reference_edges(self, graph_ids, p):
        w, ids = graph_ids
        reference = oracles.mst_plus_threshold_nx(oracles.nx_graph(w, ids), p)
        assert edge_set(mst_plus_threshold(w, p), ids) == {
            frozenset(e) for e in reference.edges()}

    @given(weighted_graphs())
    @settings(max_examples=300, deadline=None)
    def test_greedy_communities_match_the_reference(self, graph_ids):
        w, _ = graph_ids
        # node ids ascend along the axis, as the taxonomy's ids do
        ids = [f"F{i:03d}" for i in range(len(w))]
        communities, modularity = oracles.greedy_communities_nx(oracles.nx_graph(w, ids))
        labels, q = greedy_communities(w)
        assert dict(zip(ids, labels.tolist())) == communities
        assert q == pytest.approx(modularity, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_backbone_communities_match_the_reference(self, seed):
        # phi-like weights on 80 nodes, ids ascending, then each backbone
        rng = np.random.default_rng(seed)
        a = rng.random((80, 80)) ** 4
        w = np.triu(a + a.T, 1)
        w = w + w.T
        ids = [f"F{i:03d}" for i in range(80)]
        for kept in (disparity_filter(w, 0.2), mst_plus_threshold(w, 1.0)):
            communities, modularity = oracles.greedy_communities_nx(
                oracles.nx_graph(kept, ids))
            labels, q = greedy_communities(kept)
            assert dict(zip(ids, labels.tolist())) == communities
            assert q == pytest.approx(modularity, abs=1e-12)


class TestClassifyEdges:
    """An exported edge is intra or inter by whether its endpoints share a
    community."""

    @staticmethod
    def groups(w, labels, ids):
        rows = (line.split("\t") for line in export_edgelist(w, labels, ids).splitlines())
        return {frozenset((u, v)): group for u, v, _, group in rows}

    def test_intra_and_inter(self):
        w, ids = two_cliques()
        groups = self.groups(w, greedy_communities(w)[0], ids)
        assert groups[frozenset(("N04", "N00"))] == "inter"
        assert groups[frozenset(("N00", "N01"))] == "intra"

    def test_singleton_partition_all_inter(self):
        w, ids = triangle()
        assert set(self.groups(w, np.arange(3), ids).values()) == {"inter"}


def backbone_graph(phi, taxonomy, level="field"):
    """The export arguments of ``backbone`` keeping every edge."""
    w = proximity_graph(phi.values)
    return (w, greedy_communities(w)[0], phi.field_ids,
            node_styles(taxonomy, phi.field_ids, level))


@st.composite
def symmetric_arrays(draw):
    """Exactly symmetric arrays of up to 9 rows, with negatives, zeros of both
    signs and all-zero rows and columns among their entries."""
    n = draw(st.integers(0, 9))
    a = draw(hnp.arrays(np.float64, (n, n), elements=st.sampled_from(
        [-1.5, -0.0, 0.0, 1e-300, 0.25, 0.5, 1.0])))
    zero = draw(hnp.arrays(np.bool_, n))
    a[zero] = a[:, zero] = draw(st.sampled_from([0.0, -0.0]))
    # the upper triangle, diagonal included, mirrored bit for bit
    return np.where(np.triu(np.ones((n, n), dtype=bool)), a, a.T)


class TestGraphAndExports:
    def test_proximity_graph_no_self_loops(self):
        taxonomy = make_taxonomy(3)
        phi = sym_phi(np.array([
            [1.0, 0.5, 0.0],
            [0.5, 1.0, 0.2],
            [0.0, 0.2, 1.0],
        ]), field_ids=taxonomy.field_ids)
        w = proximity_graph(phi.values)
        assert n_edges(w) == 2
        assert not np.diag(w).any()
        assert all(color.startswith("#")
                   for _, color in node_styles(taxonomy, phi.field_ids, "field"))

    @given(symmetric_arrays())
    @settings(max_examples=300, deadline=None)
    def test_proximity_graph_matches_the_triangle_oracle(self, values):
        assert same_bits(proximity_graph(values), oracles.proximity_graph_triu(values))

    @pytest.mark.parametrize("fields_per_intermediate", [1, 3, 4])
    def test_node_styles_color_each_field_as_its_intermediate(self,
                                                             fields_per_intermediate):
        taxonomy = make_taxonomy(12, fields_per_intermediate)
        inter_ids = sorted(taxonomy.intermediates)
        inter_color = {iid: color for iid, (_, color) in zip(
            inter_ids, node_styles(taxonomy, inter_ids, "intermediate"))}
        field_color = [color for _, color in
                       node_styles(taxonomy, taxonomy.field_ids, "field")]
        assert field_color == [inter_color[f.intermediate_id] for f in taxonomy.fields]
        assert len(set(field_color)) == len(taxonomy.macros)

    def test_edgelist_roundtrip_fields(self):
        w, ids = triangle()
        lines = [l.split("\t") for l in export_edgelist(w, np.arange(3), ids)
                 .strip().splitlines()]
        assert lines == [["a", "b", "3", "inter"], ["a", "c", "2", "inter"],
                         ["b", "c", "1", "inter"]]
        # a backbone without edges is one empty line
        assert export_edgelist(np.zeros((0, 0)), np.zeros(0, dtype=int), []) == "\n"

    def test_dot_export_marks_inter_red(self):
        # F001-F004 and F005-F008 are cliques, joined by one weaker edge
        taxonomy = make_taxonomy(8, fields_per_intermediate=4)
        vals = np.kron(np.eye(2), np.ones((4, 4)))
        vals[0, 4] = vals[4, 0] = 0.5
        dot = export_dot(*backbone_graph(sym_phi(vals), taxonomy))
        assert '  "F001" -- "F005" [weight=0.5, color=red];' in dot
        assert '  "F001" -- "F002" [weight=1, color=black];' in dot
        assert '  "F005" [label="Field 5", style=filled, fillcolor="#377eb8"];' in dot
        assert dot.startswith("graph research_space {")

    def test_dot_export_escapes_quotes_and_backslashes(self):
        taxonomy = FieldTaxonomy(
            [TaxonomyField('F"1', r'Topic "A" \ B', "I1"),
             TaxonomyField("F002", "Plain", "I1")],
            {"I1": Intermediate("IN1", "M1")}, {"M1": "Macro"})
        phi = sym_phi([[1.0, 0.5], [0.5, 1.0]], ['F"1', "F002"])
        assert export_dot(*backbone_graph(phi, taxonomy)).splitlines()[1:4] == [
            r'  "F\"1" [label="Topic \"A\" \\ B", style=filled, fillcolor="#e41a1c"];',
            '  "F002" [label="Plain", style=filled, fillcolor="#e41a1c"];',
            r'  "F\"1" -- "F002" [weight=0.5, color=black];',
        ]

    def test_graphml_export(self, tmp_path):
        w, ids = triangle()
        labels = greedy_communities(w)[0]
        path = tmp_path / "g.graphml"
        path.write_text(export_graphml(w, labels, ids, [("A", "#e41a1c")] * 3),
                        encoding="utf-8")
        back = nx.read_graphml(path)
        assert back.number_of_edges() == 3
        assert {d["group"] for _, _, d in back.edges(data=True)} == {"intra"}
        assert back.nodes["a"] == {"label": "A", "color": "#e41a1c"}
