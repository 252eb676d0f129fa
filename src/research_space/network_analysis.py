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


def proximity_graph(phi: ProximityMatrix, taxonomy: FieldTaxonomy,
                    level: str) -> nx.Graph:
    """Undirected graph from a symmetric proximity matrix; positive weights,
    no self-loops. Each node carries its taxonomy label and macro color."""
    g = nx.Graph()
    colors = macro_colors(taxonomy)
    for fid in phi.field_ids:
        if level == "field":
            f = taxonomy.field(fid)
            g.add_node(fid, label=f.name, color=colors[f.macro_id])
        else:
            im = taxonomy.intermediates[fid]
            g.add_node(fid, label=im.acronym, color=colors[im.macro_id])
    ids = phi.field_ids
    for i, j in zip(*np.nonzero(np.triu(phi.values, 1) > 0)):
        g.add_edge(ids[i], ids[j], weight=float(phi.values[i, j]))
    return g


def aggregate_to_intermediate(phi: ProximityMatrix,
                              taxonomy: FieldTaxonomy) -> ProximityMatrix:
    """Proximity between intermediates as the mean of phi over their
    cross-field pairs, excluding the diagonal f' = f."""
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
    blocks = nx.community.greedy_modularity_communities(g, weight="weight")
    communities = {}
    for block in blocks:
        communities.update(dict.fromkeys(block, min(index[u] for u in block)))
    return Partition(communities=communities, modularity=nx.community.modularity(
        g, blocks, weight="weight"))


def classify_edges(g: nx.Graph, partition: Partition) -> None:
    """Set each edge's ``group`` to intra or inter, by whether its endpoints
    share a community."""
    c = partition.communities
    for u, v, d in g.edges(data=True):
        d["group"] = "intra" if c[u] == c[v] else "inter"


# --- exports --------------------------------------------------------------

def export_edgelist(g: nx.Graph) -> str:
    lines = [f"{u}\t{v}\t{d['weight']:.10g}\t{d['group']}"
             for u, v, d in sorted(g.edges(data=True))]
    return "\n".join(lines) + "\n"


def export_graphml(g: nx.Graph) -> str:
    """The GraphML document as ``nx.write_graphml`` writes it, with its XML
    declaration and UTF-8 text (``nx.generate_graphml`` drops the former and
    escapes non-ASCII labels)."""
    buf = io.BytesIO()
    nx.write_graphml(g, buf)
    return buf.getvalue().decode("utf-8")


def _dot_quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: nx.Graph) -> str:
    """Dot-language rendering input with macro-area colors and inter-edge
    highlighting."""
    lines = ["graph research_space {"]
    for u, d in sorted(g.nodes(data=True)):
        lines.append(f'  {_dot_quoted(u)} [label={_dot_quoted(d["label"])}, '
                     f'style=filled, fillcolor="{d["color"]}"];')
    for u, v, d in sorted(g.edges(data=True)):
        color = "red" if d["group"] == "inter" else "black"
        lines.append(f'  {_dot_quoted(u)} -- {_dot_quoted(v)} '
                     f'[weight={d["weight"]:.6g}, color={color}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
