"""Field networks from proximity matrices: visualization graphs (MST plus
threshold), disparity-filter backbones, intermediate-level aggregation, and
greedy modularity communities."""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from .corpus import FieldTaxonomy
from .errors import ConfigError
from .freq_model import ProximityMatrix

# one color per macro area, assigned in taxonomy order
MACRO_PALETTE = [
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#999999",
]


@dataclass
class Partition:
    communities: dict  # node -> community id
    modularity: float


def macro_colors(taxonomy: FieldTaxonomy) -> dict[str, str]:
    ids = sorted(taxonomy.macros)
    return {m: MACRO_PALETTE[i % len(MACRO_PALETTE)] for i, m in enumerate(ids)}


def proximity_graph(phi: ProximityMatrix, taxonomy: FieldTaxonomy | None = None,
                    level: str = "field") -> nx.Graph:
    """Undirected graph from a symmetric proximity matrix; positive weights,
    no self-loops. Nodes carry label and macro-color attributes when a
    taxonomy is given."""
    if not phi.is_symmetric:
        raise ConfigError(
            "graph construction needs a symmetric proximity matrix "
            "(the frequentist model is directed)"
        )
    g = nx.Graph()
    colors = macro_colors(taxonomy) if taxonomy is not None else {}
    for fid in phi.field_ids:
        attrs = {}
        if taxonomy is not None:
            if level == "field":
                f = taxonomy.field(fid)
                attrs = {"label": f.name, "color": colors[f.macro_id]}
            else:
                im = taxonomy.intermediates[fid]
                attrs = {"label": im.acronym, "color": colors[im.macro_id]}
        g.add_node(fid, **attrs)
    n = len(phi.field_ids)
    for i in range(n):
        for j in range(i + 1, n):
            w = phi.values[i, j]
            if w > 0:
                g.add_edge(phi.field_ids[i], phi.field_ids[j], weight=float(w))
    return g


def aggregate_to_intermediate(phi: ProximityMatrix,
                              taxonomy: FieldTaxonomy) -> ProximityMatrix:
    """Proximity between intermediates as the mean of phi over their
    cross-field pairs, excluding the diagonal f' = f."""
    if not phi.is_symmetric:
        raise ConfigError("intermediate aggregation needs a symmetric proximity matrix")
    inter_ids = sorted(taxonomy.intermediates)
    iindex = {im: k for k, im in enumerate(inter_ids)}
    groups = [[] for _ in inter_ids]
    for k, fid in enumerate(phi.field_ids):
        groups[iindex[taxonomy.intermediate_of(fid)]].append(k)
    n = len(inter_ids)
    out = np.zeros((n, n))
    for a in range(n):
        for b in range(a, n):
            pairs = [
                phi.values[i, j]
                for i in groups[a]
                for j in groups[b]
                if i != j
            ]
            out[a, b] = out[b, a] = float(np.mean(pairs)) if pairs else 0.0
    return ProximityMatrix(
        values=out, field_ids=inter_ids, model_tag="embedding", window=phi.window
    )


def mst_plus_threshold(g: nx.Graph, p: float) -> nx.Graph:
    """Maximum spanning forest plus all edges with weight > p."""
    if np.isnan(p):
        raise ConfigError("threshold p must not be NaN")
    kept = nx.Graph()
    kept.add_nodes_from(g.nodes(data=True))
    for u, v, data in nx.maximum_spanning_edges(g, data=True):
        kept.add_edge(u, v, **data)
    for u, v, data in g.edges(data=True):
        if data["weight"] > p:
            kept.add_edge(u, v, **data)
    return kept


def disparity_pvalue(weight: float, strength: float, degree: int) -> float:
    """Significance of an edge seen from one endpoint:
    (1 - w/s)^(k-1); degree-1 endpoints contribute 1."""
    if degree <= 1:
        return 1.0
    return (1.0 - weight / strength) ** (degree - 1)


def disparity_filter(g: nx.Graph, alpha: float) -> nx.Graph:
    """Keep edges significant at level alpha from at least one endpoint."""
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    strength = {u: sum(d["weight"] for _, _, d in g.edges(u, data=True)) for u in g}
    degree = dict(g.degree())
    kept = nx.Graph()
    kept.add_nodes_from(g.nodes(data=True))
    for u, v, data in g.edges(data=True):
        w = data["weight"]
        p_u = disparity_pvalue(w, strength[u], degree[u])
        p_v = disparity_pvalue(w, strength[v], degree[v])
        if p_u < alpha or p_v < alpha:
            kept.add_edge(u, v, **data)
    return kept


def weighted_modularity(g: nx.Graph, communities: dict) -> float:
    """Q = sum_c (e_c/m - (a_c/2m)^2) with e_c the intra-community weight and
    a_c the total strength of the community's nodes."""
    m = g.size(weight="weight")
    if m == 0:
        return 0.0
    intra: dict = {}
    strength_sum: dict = {}
    for u in g:
        c = communities[u]
        strength_sum[c] = strength_sum.get(c, 0.0) + sum(
            d["weight"] for _, _, d in g.edges(u, data=True)
        )
    for u, v, d in g.edges(data=True):
        if communities[u] == communities[v]:
            c = communities[u]
            intra[c] = intra.get(c, 0.0) + d["weight"]
    q = 0.0
    for c in strength_sum:
        q += intra.get(c, 0.0) / m - (strength_sum[c] / (2 * m)) ** 2
    return q


def greedy_communities(g: nx.Graph) -> Partition:
    """Agglomerative modularity maximization: merge the community pair with
    the largest positive modularity gain until none remains. Ties break on
    the smallest (community id, community id) pair."""
    if g.number_of_nodes() == 0:
        raise ConfigError("cannot detect communities on an empty graph")
    nodes = sorted(g.nodes())
    comm_of = {u: i for i, u in enumerate(nodes)}
    members = {i: {u} for i, u in enumerate(nodes)}
    m = g.size(weight="weight")
    if m == 0:
        return Partition(communities=dict(comm_of), modularity=0.0)
    strength = {
        i: sum(d["weight"] for _, _, d in g.edges(u, data=True))
        for i, u in enumerate(nodes)
    }
    # weight between communities, keyed by sorted id pair
    between: dict = {}
    for u, v, d in g.edges(data=True):
        key = tuple(sorted((comm_of[u], comm_of[v])))
        if key[0] != key[1]:
            between[key] = between.get(key, 0.0) + d["weight"]

    while between:
        best_gain = 0.0
        best_key = None
        # sorted iteration makes the smallest id pair win exact ties
        for key in sorted(between):
            i, j = key
            gain = between[key] / m - strength[i] * strength[j] / (2 * m * m)
            if gain > best_gain + 1e-15:
                best_gain = gain
                best_key = key
        if best_key is None:
            break
        i, j = best_key  # absorb j into i
        members[i] |= members.pop(j)
        strength[i] += strength.pop(j)
        merged: dict = {}
        for (a, b), w in between.items():
            a = i if a == j else a
            b = i if b == j else b
            if a == b:
                continue
            key = tuple(sorted((a, b)))
            merged[key] = merged.get(key, 0.0) + w
        between = merged

    communities = {}
    for cid, mem in members.items():
        for u in mem:
            communities[u] = cid
    return Partition(
        communities=communities, modularity=weighted_modularity(g, communities)
    )


def classify_edges(g: nx.Graph, partition: Partition) -> dict:
    """Label each edge intra or inter depending on whether its endpoints
    share a community."""
    labels = {}
    for u, v in g.edges():
        if u not in partition.communities or v not in partition.communities:
            raise ConfigError(f"partition does not cover edge ({u}, {v})")
        labels[(u, v)] = (
            "intra" if partition.communities[u] == partition.communities[v] else "inter"
        )
    return labels


# --- exports --------------------------------------------------------------

def export_edgelist(g: nx.Graph, labels: dict | None = None) -> str:
    lines = []
    for u, v, d in sorted(g.edges(data=True)):
        label = labels.get((u, v), labels.get((v, u), "")) if labels else ""
        lines.append(f"{u}\t{v}\t{d['weight']:.10g}\t{label}".rstrip())
    return "\n".join(lines) + "\n"


def export_graphml(g: nx.Graph, path, labels: dict | None = None):
    out = g.copy()
    if labels:
        for (u, v), lab in labels.items():
            out[u][v]["group"] = lab
    nx.write_graphml(out, path)


def export_dot(g: nx.Graph, labels: dict | None = None) -> str:
    """Dot-language rendering input with macro-area colors and inter-edge
    highlighting."""
    lines = ["graph research_space {"]
    for u, data in sorted(g.nodes(data=True)):
        attrs = [f'label="{data.get("label", u)}"']
        if "color" in data:
            attrs.append('style=filled')
            attrs.append(f'fillcolor="{data["color"]}"')
        lines.append(f'  "{u}" [{", ".join(attrs)}];')
    for u, v, d in sorted(g.edges(data=True)):
        label = labels.get((u, v), labels.get((v, u), "")) if labels else ""
        color = "red" if label == "inter" else "black"
        lines.append(f'  "{u}" -- "{v}" [weight={d["weight"]:.6g}, color={color}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
