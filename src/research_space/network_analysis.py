"""Field networks from proximity matrices: visualization graphs (MST plus
threshold), disparity-filter backbones, intermediate-level aggregation, and
greedy modularity communities. A graph is one symmetric weight array on phi's
field axis, 0 where two fields share no edge; networkx only writes GraphML."""

from __future__ import annotations

import io

import numpy as np

from .corpus import FieldTaxonomy
from .errors import ConfigError

# one color per macro area, assigned in macro id order
MACRO_PALETTE = [
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#999999",
]


def node_styles(taxonomy: FieldTaxonomy, ids: list[str],
                level: str) -> list[tuple[str, str]]:
    """(label, color) of each node: its field name or intermediate acronym,
    and its macro area's color."""
    colors = {m: MACRO_PALETTE[i % len(MACRO_PALETTE)]
              for i, m in enumerate(taxonomy.macros)}
    if level == "field":
        return [(f.name, colors[taxonomy.intermediates[f.intermediate_id].macro_id])
                for f in map(taxonomy.field, ids)]
    return [(im.acronym, colors[im.macro_id])
            for im in map(taxonomy.intermediates.__getitem__, ids)]


def proximity_graph(values: np.ndarray) -> np.ndarray:
    """The positive off-diagonal entries of an exactly symmetric proximity array."""
    w = np.where(values > 0, values, 0.0)
    np.fill_diagonal(w, 0.0)
    return w


def aggregate_to_intermediate(values: np.ndarray, taxonomy: FieldTaxonomy):
    """(intermediate ids, values): the proximity between intermediates, in
    sorted id order, as the mean of a proximity array on the taxonomy's fields
    over their cross-field pairs, excluding the diagonal f' = f."""
    inter_ids = list(taxonomy.intermediates)
    member = np.eye(len(inter_ids))[[inter_ids.index(f.intermediate_id)
                                     for f in taxonomy.fields]]
    off_diagonal = values - np.diag(np.diag(values))
    sums = member.T @ off_diagonal @ member
    sums = (sums + sums.T) / 2  # BLAS sums the two triangles in different orders
    sizes = member.sum(axis=0)
    pairs = np.outer(sizes, sizes) - np.diag(sizes)
    return inter_ids, np.divide(sums, pairs, out=np.zeros_like(sums), where=pairs > 0)


def _strength(w):
    """Each node's summed edge weight, added left to right in Python as
    networkx's ``G.degree(weight=...)`` adds it."""
    return np.array([sum(row) for row in w.tolist()])


def mst_plus_threshold(w: np.ndarray, p: float) -> np.ndarray:
    """Maximum spanning forest plus all edges with weight > p. Kruskal takes
    the edges by descending weight, equal weights in row-major order, as
    ``nx.maximum_spanning_edges`` does."""
    if np.isnan(p):
        raise ConfigError("threshold p must not be NaN")
    keep, tree = w > p, list(range(len(w)))
    i, j = np.nonzero(np.triu(w, 1))
    by_weight = np.argsort(-w[i, j], kind="stable")
    for u, v in zip(i[by_weight].tolist(), j[by_weight].tolist()):
        a, b = tree[u], tree[v]
        if a != b:  # the edge joins two trees of the forest
            keep[u, v] = keep[v, u] = True
            tree = [a if t == b else t for t in tree]
    return np.where(keep, w, 0.0)


def disparity_pvalue(weight, strength, degree):
    """Significance of an edge seen from one endpoint, elementwise:
    (1 - w/s)^(k-1); degree-1 endpoints contribute 1. ``np.float_power``
    rounds as Python's ``**`` does, where ``np.power`` may not."""
    return np.where(degree > 1,
                    np.float_power(1.0 - weight / strength, degree - 1), 1.0)


def disparity_filter(w: np.ndarray, alpha: float) -> np.ndarray:
    """Keep edges significant at level alpha from at least one endpoint."""
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    strength, degree = _strength(w)[:, None], np.count_nonzero(w, axis=1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # nodes without edges
        significant = disparity_pvalue(w, strength, degree) < alpha  # seen from row i
    return np.where((w > 0) & (significant | significant.T), w, 0.0)


def greedy_communities(w: np.ndarray) -> tuple[np.ndarray, float]:
    """Clauset-Newman-Moore greedy modularity maximization as networkx's
    ``greedy_modularity_communities`` runs it, on the dense array dq of the
    modularity gains of merging two adjacent communities. Each step merges
    the first maximum of dq in row-major order, u into v, which is how
    networkx's heaps break ties when the nodes' ids ascend along the axis,
    until no gain is >= 0. A community's id is the axis position of its first
    node; returns each node's community id and the partition's modularity."""
    n = len(w)
    if n == 0:
        raise ConfigError("cannot detect communities on an empty graph")
    strength = _strength(w)
    if not strength.any():
        return np.arange(n), 0.0  # each node its own community
    m = sum(strength.tolist()) / 2
    q0 = 1 / m
    a = strength * q0 * 0.5  # each community's share of 2m
    dq = np.where(w > 0, q0 * w - 2 * np.outer(a, a), -np.inf)
    community = np.arange(n)
    while True:
        u, v = divmod(int(np.argmax(dq)), n)
        if dq[u, v] < 0:  # also when no two communities are adjacent
            break
        dq[u, v] = dq[v, u] = -np.inf
        du, dv = dq[u], dq[v]
        # networkx's updates for a neighbor of both, of u only and of v only
        row = np.where(du > -np.inf, np.where(dv > -np.inf, dv + du, du - 2 * (a[v] * a)),
                       dv - 2 * (a[u] * a))
        dq[v], dq[:, v] = row, row
        dq[u], dq[:, u] = -np.inf, -np.inf
        a[v] += a[u]
        community[community == u] = v
    first, members = np.unique(community, return_index=True, return_inverse=True)[1:]
    labels = first[members]
    same = labels[:, None] == labels[None, :]
    shares = np.bincount(labels, weights=strength) / (2 * m)
    return labels, float(w[same].sum() / (2 * m) - (shares ** 2).sum())


# --- exports --------------------------------------------------------------

def _groups(kept, labels, ids):
    """(u, v, weight, group) of each kept edge i < j in row-major order; the
    group is intra or inter, by whether its endpoints share a community."""
    i, j = np.nonzero(np.triu(kept, 1))
    intra = (labels[i] == labels[j]).tolist()
    return [(ids[a], ids[b], wt, "intra" if same else "inter") for a, b, wt, same
            in zip(i.tolist(), j.tolist(), kept[i, j].tolist(), intra)]


def export_edgelist(kept: np.ndarray, labels: np.ndarray, ids: list[str]) -> str:
    lines = [f"{u}\t{v}\t{w:.10g}\t{group}"
             for u, v, w, group in _groups(kept, labels, ids)]
    return "\n".join(lines) + "\n"


def export_graphml(kept: np.ndarray, labels: np.ndarray, ids: list[str],
                   styles: list[tuple[str, str]]) -> str:
    """The GraphML document as ``nx.write_graphml`` writes it, with its XML
    declaration and UTF-8 text (``nx.generate_graphml`` drops the former and
    escapes non-ASCII labels). Edges are written in row-major order."""
    import networkx as nx  # the only use of networkx in the package

    g = nx.Graph()
    g.add_nodes_from((u, {"label": label, "color": color})
                     for u, (label, color) in zip(ids, styles))
    g.add_edges_from((u, v, {"weight": w, "group": group})
                     for u, v, w, group in _groups(kept, labels, ids))
    buf = io.BytesIO()
    nx.write_graphml(g, buf)
    return buf.getvalue().decode("utf-8")


def _dot_quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(kept: np.ndarray, labels: np.ndarray, ids: list[str],
               styles: list[tuple[str, str]]) -> str:
    """Dot-language rendering input with macro-area colors and inter-edge
    highlighting; nodes in axis order, then edges in row-major order."""
    lines = ["graph research_space {"]
    for u, (label, color) in zip(ids, styles):
        lines.append(f'  {_dot_quoted(u)} [label={_dot_quoted(label)}, '
                     f'style=filled, fillcolor="{color}"];')
    for u, v, w, group in _groups(kept, labels, ids):
        color = "red" if group == "inter" else "black"
        lines.append(f'  {_dot_quoted(u)} -- {_dot_quoted(v)} '
                     f'[weight={w:.6g}, color={color}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
