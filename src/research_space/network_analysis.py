"""Field networks from proximity matrices: visualization graphs (MST plus
threshold), disparity-filter backbones, intermediate-level aggregation, and
greedy modularity communities."""

from __future__ import annotations

import io
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
    ids = phi.field_ids
    for i, j in zip(*np.nonzero(np.triu(phi.values, 1) > 0)):
        g.add_edge(ids[i], ids[j], weight=float(phi.values[i, j]))
    return g


def aggregate_to_intermediate(phi: ProximityMatrix,
                              taxonomy: FieldTaxonomy) -> ProximityMatrix:
    """Proximity between intermediates as the mean of phi over their
    cross-field pairs, excluding the diagonal f' = f."""
    if not phi.is_symmetric:
        raise ConfigError("intermediate aggregation needs a symmetric proximity matrix")
    inter_ids = sorted(taxonomy.intermediates)
    iindex = {im: k for k, im in enumerate(inter_ids)}
    member = np.zeros((len(phi.field_ids), len(inter_ids)))
    cols = [iindex[taxonomy.intermediate_of(fid)] for fid in phi.field_ids]
    member[np.arange(len(cols)), cols] = 1.0
    off_diagonal = phi.values - np.diag(np.diag(phi.values))
    sums = member.T @ off_diagonal @ member
    sums = (sums + sums.T) / 2  # BLAS sums the two triangles in different orders
    sizes = member.sum(axis=0)
    pairs = np.outer(sizes, sizes) - np.diag(sizes)
    out = np.divide(sums, pairs, out=np.zeros_like(sums), where=pairs > 0)
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
    strength = dict(g.degree(weight="weight"))
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
    """Weighted Newman modularity of the partition ``communities`` (node ->
    community id) via networkx; 0 on a graph without weight."""
    if g.size(weight="weight") == 0:
        return 0.0
    blocks: dict = {}
    for u in g:
        blocks.setdefault(communities[u], set()).add(u)
    return nx.community.modularity(g, blocks.values(), weight="weight")


def greedy_communities(g: nx.Graph) -> Partition:
    """Clauset-Newman-Moore greedy modularity maximization (networkx
    ``greedy_modularity_communities``). A community's id is the position of
    its smallest node in sorted node order; exact ties between candidate
    merges break in networkx's order."""
    if g.number_of_nodes() == 0:
        raise ConfigError("cannot detect communities on an empty graph")
    index = {u: i for i, u in enumerate(sorted(g.nodes()))}
    if g.size(weight="weight") == 0:
        return Partition(communities=index, modularity=0.0)
    communities = {}
    for block in nx.community.greedy_modularity_communities(g, weight="weight"):
        cid = min(index[u] for u in block)
        communities.update(dict.fromkeys(block, cid))
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


def export_graphml(g: nx.Graph, labels: dict | None = None) -> str:
    """The GraphML document as ``nx.write_graphml`` writes it, with its XML
    declaration and UTF-8 text (``nx.generate_graphml`` drops the former and
    escapes non-ASCII labels)."""
    out = g.copy()
    if labels:
        for (u, v), lab in labels.items():
            out[u][v]["group"] = lab
    buf = io.BytesIO()
    nx.write_graphml(out, buf)
    return buf.getvalue().decode("utf-8")


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
