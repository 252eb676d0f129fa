import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_taxonomy
from research_space.corpus import FieldTaxonomy, Intermediate, TaxonomyField
from research_space.errors import ConfigError
from research_space.freq_model import ProximityMatrix
from research_space.network_analysis import (
    aggregate_to_intermediate,
    classify_edges,
    disparity_filter,
    disparity_pvalue,
    export_dot,
    export_edgelist,
    export_graphml,
    Partition,
    greedy_communities,
    mst_plus_threshold,
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
        agg = aggregate_to_intermediate(phi, taxonomy)
        assert agg.field_ids == ["I1", "I2"]
        assert agg.values[0, 1] == pytest.approx(0.42)
        # a singleton intermediate has no off-diagonal pair
        assert agg.values[0, 0] == 0.0

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
        agg = aggregate_to_intermediate(sym_phi(vals), taxonomy)
        assert agg.values[0, 1] == pytest.approx(0.3)
        assert agg.values[0, 0] == pytest.approx(0.9)  # within-I1 pair mean

    def test_symmetric_output(self):
        taxonomy = make_taxonomy(6, fields_per_intermediate=3)
        rng = np.random.default_rng(0)
        a = rng.random((6, 6))
        phi = sym_phi((a + a.T) / 2)
        agg = aggregate_to_intermediate(phi, taxonomy)
        np.testing.assert_allclose(agg.values, agg.values.T)


def triangle(w12=3.0, w13=2.0, w23=1.0):
    g = nx.Graph()
    g.add_edge("a", "b", weight=w12)
    g.add_edge("a", "c", weight=w13)
    g.add_edge("b", "c", weight=w23)
    return g


class TestMstPlusThreshold:
    def test_mst_only(self):
        kept = mst_plus_threshold(triangle(), p=float("inf"))
        weights = sorted(d["weight"] for _, _, d in kept.edges(data=True))
        assert weights == [2.0, 3.0]

    def test_threshold_vacuous(self):
        kept = mst_plus_threshold(triangle(), p=0.0)
        assert kept.number_of_edges() == 3

    def test_spans_every_component(self):
        g = triangle()
        g.add_edge("x", "y", weight=0.1)
        kept = mst_plus_threshold(g, p=float("inf"))
        assert nx.number_connected_components(kept) == nx.number_connected_components(g)
        assert kept.has_edge("x", "y")

    def test_nan_threshold_rejected(self):
        with pytest.raises(ConfigError):
            mst_plus_threshold(triangle(), p=float("nan"))


class TestDisparityFilter:
    def test_degree_two_equal_weights(self):
        # p = (1 - 0.5)^1 = 0.5 from the middle node
        g = nx.Graph()
        g.add_edge("m", "a", weight=1.0)
        g.add_edge("m", "b", weight=1.0)
        assert disparity_pvalue(1.0, 2.0, 2) == pytest.approx(0.5, abs=1e-12)
        assert disparity_filter(g, alpha=0.6).number_of_edges() == 2
        assert disparity_filter(g, alpha=0.4).number_of_edges() == 0

    def test_dominant_star_edge(self):
        g = nx.Graph()
        g.add_edge("hub", "big", weight=0.97)
        for i in range(9):
            g.add_edge("hub", f"leaf{i}", weight=0.03 / 9)
        p = disparity_pvalue(0.97, 1.0, 10)
        assert p == pytest.approx(0.03 ** 9, rel=1e-12)
        kept = disparity_filter(g, alpha=0.05)
        assert kept.has_edge("hub", "big")

    def test_degree_one_convention(self):
        g = nx.Graph()
        g.add_edge("a", "b", weight=5.0)
        assert disparity_pvalue(5.0, 5.0, 1) == 1.0
        # both endpoints have degree 1 -> p = 1 from both sides, never kept
        assert disparity_filter(g, alpha=0.99).number_of_edges() == 0

    def test_alpha_validation(self):
        with pytest.raises(ConfigError):
            disparity_filter(triangle(), alpha=0.0)
        with pytest.raises(ConfigError):
            disparity_filter(triangle(), alpha=1.0)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(5)
        g = nx.Graph()
        for i in range(12):
            for j in range(i + 1, 12):
                if rng.random() < 0.5:
                    g.add_edge(i, j, weight=float(rng.random()) + 0.01)
        prev = set()
        for alpha in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95):
            edges = {tuple(sorted(e)) for e in disparity_filter(g, alpha).edges()}
            assert prev <= edges
            prev = edges

    def test_nodes_preserved(self):
        g = triangle()
        kept = disparity_filter(g, alpha=0.01)
        assert set(kept.nodes()) == set(g.nodes())


def two_cliques(k=4, bridge_weight=1.0):
    g = nx.Graph()
    for offset in (0, k):
        for i in range(k):
            for j in range(i + 1, k):
                g.add_edge(offset + i, offset + j, weight=1.0)
    g.add_edge(0, k, weight=bridge_weight)
    return g


class TestGreedyCommunities:
    def test_two_cliques_recovered(self):
        g = two_cliques()
        part = greedy_communities(g)
        comms = {frozenset(n for n, c in part.communities.items() if c == cid)
                 for cid in set(part.communities.values())}
        assert comms == {frozenset(range(4)), frozenset(range(4, 8))}
        # a community's id is the position of its smallest node in sorted order
        assert part.communities == {n: 0 if n < 4 else 4 for n in range(8)}

    def test_single_clique_one_community(self):
        g = nx.complete_graph(5)
        nx.set_edge_attributes(g, 1.0, "weight")
        part = greedy_communities(g)
        assert len(set(part.communities.values())) == 1

    def test_disconnected_components_stay_apart(self):
        g = nx.Graph()
        g.add_edge("a", "b", weight=1.0)
        g.add_edge("c", "d", weight=1.0)
        part = greedy_communities(g)
        assert part.communities["a"] != part.communities["c"]

    def test_q_beats_singleton_partition(self):
        g = two_cliques()
        part = greedy_communities(g)
        singleton = {n: i for i, n in enumerate(g.nodes())}
        assert part.modularity >= oracles.modularity_pairwise(g, singleton)

    def test_near_optimal_on_small_graphs(self):
        graphs = [
            two_cliques(3),
            two_cliques(4),
            nx.path_graph(6),
            nx.cycle_graph(7),
            nx.karate_club_graph().subgraph(range(8)).copy(),
        ]
        for g in graphs:
            for u, v in g.edges():
                g[u][v].setdefault("weight", 1.0)
            if g.number_of_edges() == 0:
                continue
            part = greedy_communities(g)
            best = oracles.max_modularity_exhaustive(g, oracles.modularity_pairwise)
            assert part.modularity >= best - 0.05

    def test_empty_graph_rejected(self):
        with pytest.raises(ConfigError):
            greedy_communities(nx.Graph())

    @given(st.integers(0, 2**31 - 1), st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_modularity_matches_pairwise_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        g = nx.Graph()
        g.add_nodes_from(range(n))  # nodes left without edges stay isolated
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    g.add_edge(i, j, weight=float(rng.uniform(0.01, 5.0)))
        part = greedy_communities(g)
        assert part.modularity == pytest.approx(
            oracles.modularity_pairwise(g, part.communities), abs=1e-12
        )

    def test_deterministic(self):
        g = two_cliques()
        a = greedy_communities(g)
        b = greedy_communities(g)
        assert a.communities == b.communities


class TestClassifyEdges:
    def test_intra_and_inter(self):
        g = two_cliques()
        classify_edges(g, greedy_communities(g))
        assert g[4][0]["group"] == g[0][4]["group"] == "inter"
        assert g[0][1]["group"] == "intra"

    def test_singleton_partition_all_inter(self):
        g = triangle()
        classify_edges(g, Partition({n: i for i, n in enumerate(g.nodes())}, 0.0))
        assert {d["group"] for _, _, d in g.edges(data=True)} == {"inter"}


def backbone_graph(phi, taxonomy, level="field"):
    """The graph ``backbone`` exports: every edge kept, groups set."""
    g = proximity_graph(phi, taxonomy, level)
    classify_edges(g, greedy_communities(g))
    return g


class TestGraphAndExports:
    def test_proximity_graph_no_self_loops(self):
        taxonomy = make_taxonomy(3)
        phi = sym_phi(np.array([
            [1.0, 0.5, 0.0],
            [0.5, 1.0, 0.2],
            [0.0, 0.2, 1.0],
        ]), field_ids=taxonomy.field_ids)
        g = proximity_graph(phi, taxonomy, "field")
        assert g.number_of_edges() == 2
        assert not list(nx.selfloop_edges(g))
        assert all("color" in g.nodes[n] for n in g)

    def test_edgelist_roundtrip_fields(self):
        g = triangle()
        classify_edges(g, Partition({n: i for i, n in enumerate(g.nodes())}, 0.0))
        lines = [l.split("\t") for l in export_edgelist(g).strip().splitlines()]
        assert lines == [["a", "b", "3", "inter"], ["a", "c", "2", "inter"],
                         ["b", "c", "1", "inter"]]
        # a backbone without edges is one empty line
        assert export_edgelist(nx.Graph()) == "\n"

    def test_dot_export_marks_inter_red(self):
        # F001-F004 and F005-F008 are cliques, joined by one weaker edge
        taxonomy = make_taxonomy(8, fields_per_intermediate=4)
        vals = np.kron(np.eye(2), np.ones((4, 4)))
        vals[0, 4] = vals[4, 0] = 0.5
        dot = export_dot(backbone_graph(sym_phi(vals), taxonomy))
        assert '  "F001" -- "F005" [weight=0.5, color=red];' in dot
        assert '  "F001" -- "F002" [weight=1, color=black];' in dot
        assert '  "F005" [label="Field 5", style=filled, fillcolor="#377eb8"];' in dot
        assert dot.startswith("graph research_space {")

    def test_dot_export_escapes_quotes_and_backslashes(self):
        taxonomy = FieldTaxonomy(
            [TaxonomyField('F"1', r'Topic "A" \ B', "I1", "M1"),
             TaxonomyField("F002", "Plain", "I1", "M1")],
            {"I1": Intermediate("I1", "IN1", "M1")}, {"M1": "Macro"})
        phi = sym_phi([[1.0, 0.5], [0.5, 1.0]], ['F"1', "F002"])
        assert export_dot(backbone_graph(phi, taxonomy)).splitlines()[1:4] == [
            r'  "F\"1" [label="Topic \"A\" \\ B", style=filled, fillcolor="#e41a1c"];',
            '  "F002" [label="Plain", style=filled, fillcolor="#e41a1c"];',
            r'  "F\"1" -- "F002" [weight=0.5, color=black];',
        ]

    def test_graphml_export(self, tmp_path):
        g = triangle()
        classify_edges(g, greedy_communities(g))
        path = tmp_path / "g.graphml"
        path.write_text(export_graphml(g), encoding="utf-8")
        back = nx.read_graphml(path)
        assert back.number_of_edges() == 3
        assert {d["group"] for _, _, d in back.edges(data=True)} == {"intra"}
