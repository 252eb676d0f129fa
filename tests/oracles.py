"""Independent brute-force oracles used by the unit and acceptance suites.

These deliberately avoid the implementation's code paths: pairwise
enumeration for AUROC, entity-pair counting for co-presence, node-pair sums
and exhaustive partition search for modularity, finite differences for
gradients, the two-pass record ingest for the one-pass ``resolve_corpus``.

It also keeps helpers that left the package because no command uses them,
and that the suites still test or use as references: the scalar stage
classifier ``classify_stage`` with its ``Stage`` enum and the letter array
``stage_matrix`` (both on ``specialization.stage_codes``), the scalar
``cosine``, and the sliding-window coefficient of variation ``cv_sliding``.
``evaluate_transition`` is the per-model composition of candidate and
realized masks and AUROC that ``evaluate`` replaced with masks built once
per run, kept with its own transition table and its own alignment of the
two windows' RCA rows by entity id as the reference.
``compare_models_pooled`` is the unpaired permutation test that the paired
sign-flip ``compare_models`` replaced, kept as its power reference, and
``sign_flip_p_exact`` enumerates every sign vector of a small paired sample.
``save_proximity_per_value`` and ``save_embeddings_per_value`` are the
artifact writers that formatted each value with its own f-string, kept as
the byte reference of the writers that format a row at a time.
``value_rows_per_row`` is that row-at-a-time body, one ``%.17g`` format per
row, and ``load_proximity_per_token`` the proximity reader that called
``float`` on every token: the byte and bit references of the codec that
formats each distinct value once and parses each distinct token once.
``plain_ints_per_value`` is the integer-cell test that ``corpus`` now runs
once per distinct value.
``disparity_filter_nx``, ``mst_plus_threshold_nx`` and
``greedy_communities_nx`` are the networkx-graph backbone layers that the
package replaced with layers on one weight array, kept as references on the
graph ``nx_graph`` builds from that array. ``export_graphml_nx`` is the
GraphML writer that went through ``nx.write_graphml``, kept as the byte
reference of the writer that prints each line itself.
``proximity_graph_triu`` is the ``proximity_graph`` body that added the
positive upper triangle to its transpose, kept as the bit-for-bit reference
of the body that zeroes the diagonal of an exactly symmetric array.
``normalize_venue``, ``venue_substrings`` and ``match_venue`` are the venue
matcher that split every name before it tried the whole, kept as the
reference of the package's matcher, which splits only on a miss.
``midranks`` and ``auroc_midranks`` are the AUROC from row-wise midranks
that the pair count from the positive cells replaced, and
``rank_candidates_lexsort`` the full-row lexsort that the top k by partition
replaced; ``rca_ix`` and ``density_ix`` are the bodies that gathered and
scattered the nonzero rows and columns; ``predict_loop`` is the predict
writer that took one entity at a time. All are kept as the bit-for-bit and
byte-for-byte references of their replacements.
``train_embeddings_dense``, with ``hinge_loss_and_grads_dense``, is the
minibatch trainer whose backward pass covered every (bag, target) pair of a
batch, kept as the reference, up to summation order, of the trainer that
takes only the terms of nonzero weight.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx
import numpy as np

from research_space.artifacts import (
    MODEL_TAGS, SCHEMA_EMBEDDING, SCHEMA_PROXIMITY, ProximityMatrix,
)
from research_space.corpus import (
    _MANDATORY, FORMAT_PROFILES, SPLIT_CHARS, YEAR_RANGE, EntityKind, FieldTaxonomy,
    MatchStats, ResolvedCorpus, VenueFieldMap,
)
from research_space.emb_model import bags_per_batch
from research_space.errors import ConfigError, ParseError, TrainingError, utf8_input
from research_space.network_analysis import _groups
from research_space.prediction_eval import auroc
from research_space.presence import TimeWindow
from research_space.specialization import TransitionKind, indicator, stage_codes


def auroc_pairwise(scores_pos, scores_neg):
    """Mean over all (pos, neg) pairs of 1 / 0.5 / 0 for > / = / <."""
    total = 0.0
    for sp in scores_pos:
        for sn in scores_neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(scores_pos) * len(scores_neg))


def compare_models_pooled(a, b, n_permutations, seed):
    """Two-sided seeded permutation test on the difference of mean AUROC
    that pools both lists and ignores their pairing."""
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    observed = abs(xa.mean() - xb.mean())
    pooled = np.concatenate([xa, xb])
    rng = np.random.default_rng(seed)
    n_a = len(xa)
    count = 0
    for _ in range(n_permutations):
        perm = rng.permutation(pooled)
        if abs(perm[:n_a].mean() - perm[n_a:].mean()) >= observed:
            count += 1
    return (count + 1) / (n_permutations + 1)


def sign_flip_p_exact(a, b):
    """Share of all 2^n sign vectors s with |sum s (a - b)| >= |sum (a - b)|,
    summed in Python in one fixed order, for a handful of pairs."""
    d = [x - y for x, y in zip(a, b)]
    observed = abs(sum(d))
    hits = sum(abs(sum(s * x for s, x in zip(signs, d))) >= observed - 1e-12
               for signs in itertools.product((1, -1), repeat=len(d)))
    return hits / 2 ** len(d)


def copresence_bruteforce(p_binary):
    """M_ff' by checking every entity against every field pair."""
    n_entities, n_fields = p_binary.shape
    m = np.zeros((n_fields, n_fields), dtype=int)
    for f in range(n_fields):
        for g in range(n_fields):
            m[f, g] = sum(
                1 for s in range(n_entities) if p_binary[s, f] and p_binary[s, g]
            )
    return m


def proximity_freq_bruteforce(p_binary):
    """phi_ff' as the fraction of entities present in f' also present in f."""
    n_entities, n_fields = p_binary.shape
    phi = np.zeros((n_fields, n_fields))
    for fprime in range(n_fields):
        present = [s for s in range(n_entities) if p_binary[s, fprime]]
        if not present:
            continue
        for f in range(n_fields):
            phi[f, fprime] = sum(1 for s in present if p_binary[s, f]) / len(present)
    return phi


def proximity_freq_by_presence(m, p):
    """phi_ff' = M_ff' / (number of entities present in f'), the counts taken
    from the presence array P itself; columns with no present entity are 0."""
    counts = p.sum(axis=0, dtype=np.float64)
    phi = np.zeros_like(m, dtype=np.float64)
    nonzero = counts > 0
    phi[:, nonzero] = m[:, nonzero] / counts[nonzero]
    return phi


def ccdf_count_loop(values):
    """(x, share of the values >= x) at each distinct value x, ascending, by
    counting over all values for each one."""
    vals = [float(v) for v in values]
    return [(x, sum(v >= x for v in vals) / len(vals)) for x in sorted(set(vals))]


def all_partitions(items):
    """Every set partition of items (Bell-number enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [first]] + smaller[i + 1:]
        yield smaller + [[first]]


def modularity_pairwise(w, labels):
    """Q = (1/2m) sum_ij [A_ij - k_i k_j / 2m] delta(c_i, c_j) over all node
    pairs of the weight array A, one community label per node."""
    k = w.sum(axis=1)
    two_m = k.sum()
    if two_m == 0:
        return 0.0
    q = 0.0
    for i in range(len(w)):
        for j in range(len(w)):
            if labels[i] == labels[j]:
                q += w[i, j] - k[i] * k[j] / two_m
    return q / two_m


def max_modularity_exhaustive(w, modularity_fn):
    """Best modularity over all partitions; feasible for <= 8 nodes."""
    best = -np.inf
    for parts in all_partitions(range(len(w))):
        labels = np.empty(len(w), dtype=int)
        for cid, block in enumerate(parts):
            labels[block] = cid
        best = max(best, modularity_fn(w, labels))
    return best


def nx_graph(w, ids):
    """The graph of a weight array: nodes in axis order, edges i < j added in
    row-major order, so each node's neighbors, and the sum of their weights
    that networkx takes as its strength, come in axis order."""
    g = nx.Graph()
    g.add_nodes_from(ids)
    for i, j in zip(*np.nonzero(np.triu(w, 1))):
        g.add_edge(ids[i], ids[j], weight=float(w[i, j]))
    return g


def proximity_graph_triu(values):
    """The weight array of a symmetric proximity array: the upper triangle of
    its positive entries plus that triangle's transpose."""
    upper = np.triu(np.where(values > 0, values, 0.0), 1)
    return upper + upper.T


def mst_plus_threshold_nx(g, p):
    """Maximum spanning forest plus all edges with weight > p."""
    kept = nx.Graph()
    kept.add_nodes_from(g.nodes(data=True))
    for u, v, data in nx.maximum_spanning_edges(g, data=True):
        kept.add_edge(u, v, **data)
    for u, v, data in g.edges(data=True):
        if data["weight"] > p:
            kept.add_edge(u, v, **data)
    return kept


def disparity_filter_nx(g, alpha):
    """Keep edges significant at level alpha from at least one endpoint,
    (1 - w/s)^(k-1) < alpha, degree-1 endpoints contributing 1."""
    strength = dict(g.degree(weight="weight"))
    degree = dict(g.degree())

    def pvalue(weight, u):
        return (1.0 - weight / strength[u]) ** (degree[u] - 1) if degree[u] > 1 else 1.0

    kept = nx.Graph()
    kept.add_nodes_from(g.nodes(data=True))
    for u, v, data in g.edges(data=True):
        if pvalue(data["weight"], u) < alpha or pvalue(data["weight"], v) < alpha:
            kept.add_edge(u, v, **data)
    return kept


def greedy_communities_nx(g):
    """(node -> community id, modularity) from networkx's
    ``greedy_modularity_communities``; a community's id is the position of its
    smallest node in sorted node order."""
    index = {u: i for i, u in enumerate(sorted(g.nodes()))}
    if g.size(weight="weight") == 0:
        return index, 0.0
    blocks = nx.community.greedy_modularity_communities(g, weight="weight")
    communities = {}
    for block in blocks:
        communities.update(dict.fromkeys(block, min(index[u] for u in block)))
    return communities, nx.community.modularity(g, blocks, weight="weight")


def export_graphml_nx(kept: np.ndarray, labels: np.ndarray, ids: list[str],
                      styles: list[tuple[str, str]]) -> str:
    """The GraphML document as ``nx.write_graphml`` writes it, with its XML
    declaration and UTF-8 text (``nx.generate_graphml`` drops the former and
    escapes non-ASCII labels). Edges are written in row-major order."""
    g = nx.Graph()
    g.add_nodes_from((u, {"label": label, "color": color})
                     for u, (label, color) in zip(ids, styles))
    g.add_edges_from((u, v, {"weight": w, "group": group})
                     for u, v, w, group in _groups(kept, labels, ids))
    buf = io.BytesIO()
    nx.write_graphml(g, buf)
    return buf.getvalue().decode("utf-8")


def finite_difference_grad(f, x, h=1e-6):
    """Central finite differences of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2 * h)
    return grad


def quantiles_sorted_oracle(values, qs):
    """Linear-interpolation quantiles computed directly on the sorted array."""
    v = sorted(values)
    n = len(v)
    out = []
    for q in qs:
        pos = q * (n - 1)
        lo = int(np.floor(pos))
        hi = int(np.ceil(pos))
        frac = pos - lo
        out.append(v[lo] * (1 - frac) + v[hi] * frac)
    return out


def quartiles_np(values):
    """q1, median and q3 by np.quantile's default linear method."""
    return np.quantile(np.asarray(values, dtype=np.float64), [0.25, 0.5, 0.75]).tolist()


def cv_sliding(covariate, values, window_size):
    """Coefficient of variation over sliding windows of the covariate order.

    Returns (points, n_skipped) where points are (covariate midpoint, CV)
    and windows with zero mean are skipped.
    """
    covariate = np.asarray(covariate, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if window_size > n:
        raise ConfigError("window_size exceeds sample size")
    order = np.argsort(covariate, kind="stable")
    cov = covariate[order]
    val = values[order]
    points = []
    skipped = 0
    for i in range(n - window_size + 1):
        w = val[i:i + window_size]
        mean = w.mean()
        if mean == 0:
            skipped += 1
            continue
        sd = w.std(ddof=1) if window_size > 1 else 0.0
        mid = (cov[i] + cov[i + window_size - 1]) / 2.0
        points.append((float(mid), float(sd / mean)))
    return points, skipped


def cv_windows_oracle(covariate, values, window_size):
    """Recompute every sliding window independently."""
    order = np.argsort(covariate, kind="stable")
    cov = np.asarray(covariate, dtype=float)[order]
    val = np.asarray(values, dtype=float)[order]
    points = []
    for i in range(len(val) - window_size + 1):
        w = val[i:i + window_size]
        mean = w.mean()
        if mean == 0:
            continue
        sd = w.std(ddof=1) if window_size > 1 else 0.0
        points.append(((cov[i] + cov[i + window_size - 1]) / 2, sd / mean))
    return points


def rca_bruteforce(x):
    """Balassa index cell by cell from the definition; each field's mass is
    added up entity by entity, in row order."""
    x = np.asarray(x, dtype=float)
    total = x.sum()
    out = np.zeros_like(x)
    for s in range(x.shape[0]):
        row = x[s].sum()
        if row == 0:
            continue
        for f in range(x.shape[1]):
            col = 0.0
            for t in range(x.shape[0]):
                col += x[t, f]
            if col == 0:
                continue
            out[s, f] = (x[s, f] / row) / (col / total)
    return out


def contribution_matrix_loop(rows, taxonomy, window):
    """X(t) built record by record from (entity_id, field_ids, n_authors,
    year) rows, and the ids of its rows: the entities with a record in the
    window, by first record there, each cell adding its records'
    contributions one at a time in record order."""
    entity_index, cells = {}, []
    for entity_id, field_ids, n_authors, year in rows:
        if not window.start_year <= year <= window.end_year:
            continue
        i = entity_index.setdefault(entity_id, len(entity_index))
        for fid in field_ids:
            cells.append((i, taxonomy.field_index[fid],
                          1.0 / (n_authors * len(field_ids))))
    mat = np.zeros((len(entity_index), len(taxonomy)))
    for i, j, v in cells:
        mat[i, j] += v
    return mat, list(entity_index)


class Stage(enum.Enum):
    INACTIVE = "0"
    NASCENT = "N"
    INTERMEDIATE = "I"
    DEVELOPED = "D"


_STAGE_LETTERS = np.array([s.value for s in Stage])


def classify_stage(rca_value: float) -> Stage:
    if rca_value < 0:
        raise ValueError(f"RCA must be non-negative, got {rca_value}")
    return list(Stage)[int(stage_codes(rca_value))]


def stage_matrix(r) -> np.ndarray:
    """Entity x field array of the single-letter stage codes of an RCA array."""
    return _STAGE_LETTERS[stage_codes(r)]


# Source stage code and lowest realized stage code per transition kind.
_TRANSITION_CODES = {
    TransitionKind.ZERO_TO_ACTIVE: (0, 1),
    TransitionKind.NASCENT_TO_DEVELOPED: (1, 3),
    TransitionKind.INTERMEDIATE_TO_DEVELOPED: (2, 3),
}


def _candidates(r_before, kind: TransitionKind, full_u_zero: bool):
    """Entity x field mask of the fields ranked for one transition kind."""
    if full_u_zero:
        return indicator(r_before, kind) == 0
    return stage_codes(r_before) == _TRANSITION_CODES[kind][0]


def _masks(r_before, before_ids, r_after, after_ids, kind: TransitionKind,
           full_u_zero: bool = False):
    """Candidate and realized-transition masks on r_before's entity axis;
    every realized transition is a candidate.

    Entities missing from r_after count as all-zero rows there.
    """
    row_of = {eid: i for i, eid in enumerate(after_ids)}
    after = np.zeros_like(r_before)
    for i, eid in enumerate(before_ids):
        if eid in row_of:
            after[i] = r_after[row_of[eid]]
    source, target = _TRANSITION_CODES[kind]
    realized = ((stage_codes(r_before) == source)
                & (stage_codes(after) >= target))
    return _candidates(r_before, kind, full_u_zero), realized


def evaluate_transition(omega, r_before, before_ids, r_after, after_ids,
                        kind: TransitionKind, full_u_zero: bool = False):
    """Per-entity AUROC for one transition kind, as (auroc, n_pos, n_neg) on
    omega's entity axis, which is r_before's: the rows of before_ids.

    auroc is NaN for the excluded entities: those without both a positive
    and a negative candidate.
    """
    if omega.shape != r_before.shape or r_before.shape[1] != r_after.shape[1]:
        raise ConfigError("density and RCA matrices are not aligned")
    cand, realized = _masks(r_before, before_ids, r_after, after_ids, kind,
                            full_u_zero)
    return auroc(omega, cand, realized)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; zero-norm vectors yield 0 by convention."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def _cosine_grads(a, b):
    """d cos(a,b) / da and / db; both vectors assumed nonzero."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    c = np.dot(a, b) / (na * nb)
    da = b / (na * nb) - c * a / (na * na)
    db = a / (na * nb) - c * b / (nb * nb)
    return da, db


def hinge_loss_and_grads_loop(input_vec, pos, negs, margin):
    """The per-negative loop the vectorized hinge replaced, kept verbatim."""
    loss = 0.0
    g_in = np.zeros_like(input_vec)
    g_pos = np.zeros_like(pos)
    g_negs = np.zeros_like(negs)
    c_pos = cosine(input_vec, pos)
    for n in range(negs.shape[0]):
        c_neg = cosine(input_vec, negs[n])
        l = margin - c_pos + c_neg
        if l <= 0:
            continue
        loss += l
        d_in_pos, d_pos = _cosine_grads(input_vec, pos)
        d_in_neg, d_neg = _cosine_grads(input_vec, negs[n])
        g_in += -d_in_pos + d_in_neg
        g_pos += -d_pos
        g_negs[n] += d_neg
    return loss, g_in, g_pos, g_negs


def _project_max_norm(vectors, indices):
    for i in indices:
        n = np.linalg.norm(vectors[i])
        if n > 1.0:
            vectors[i] /= n


def presence_bags(p):
    """The sorted field indices of each row of a presence array, row by row."""
    return [np.flatnonzero(row) for row in p]


def train_embeddings_loop(p, config):
    """The one-negative-at-a-time SGD trainer, kept verbatim apart from its
    input (the presence array, whose rows of two fields or more it trains on)
    and its return value (vectors, epoch losses): setdiff1d negatives, a
    Python loop per negative and per projected row."""
    trainable = [b for b in presence_bags(p) if len(b) >= 2]
    rng = np.random.default_rng(config.seed)
    n_fields = p.shape[1]
    vectors = rng.uniform(-1.0 / config.dim, 1.0 / config.dim,
                          size=(n_fields, config.dim))
    all_fields = np.arange(n_fields)

    total_steps = config.epochs * len(trainable)
    step = 0
    epoch_losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(trainable))
        epoch_loss = 0.0
        for bi in order:
            lr = config.learning_rate * (1.0 - step / total_steps)
            step += 1
            fields = trainable[bi]
            pos_i = int(rng.choice(fields))
            context = fields[fields != pos_i]
            outside = np.setdiff1d(all_fields, fields, assume_unique=True)
            if len(outside) == 0:
                continue
            neg_i = rng.choice(outside, size=config.negatives_per_example,
                               replace=True)
            input_vec = vectors[context].mean(axis=0)
            loss, g_in, g_pos, g_negs = hinge_loss_and_grads_loop(
                input_vec, vectors[pos_i], vectors[neg_i], config.margin
            )
            epoch_loss += loss
            if loss > 0:
                # input is the context mean, so its gradient splits evenly
                vectors[context] -= lr * g_in / len(context)
                vectors[pos_i] -= lr * g_pos
                # accumulate per unique negative (sampling is with replacement)
                np.subtract.at(vectors, neg_i, lr * g_negs)
                touched = np.concatenate((context, [pos_i], neg_i))
                _project_max_norm(vectors, np.unique(touched))
        epoch_losses.append(epoch_loss / len(trainable))
    return vectors, epoch_losses


def train_embeddings_minibatch_loop(p, config, batch):
    """Minibatch SGD one bag (presence row of two fields or more) at a time:
    each bag of a batch takes its gradients at the batch's starting vectors,
    the batch applies their sum once and projects every row it touched. The
    positives of a whole batch are drawn before its negatives; a bag of every
    field draws no negative."""
    trainable = [b for b in presence_bags(p) if len(b) >= 2]
    rng = np.random.default_rng(config.seed)
    n_fields = p.shape[1]
    vectors = rng.uniform(-1.0 / config.dim, 1.0 / config.dim,
                          size=(n_fields, config.dim))
    all_fields = np.arange(n_fields)

    total_bags = config.epochs * len(trainable)
    done = 0
    epoch_losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(trainable))
        epoch_loss = 0.0
        for lo in range(0, len(order), batch):
            members = [trainable[bi] for bi in order[lo:lo + batch]]
            lr = config.learning_rate * (1.0 - done / total_bags)
            done += len(members)
            positives = [int(rng.choice(fields)) for fields in members]
            update = np.zeros_like(vectors)
            touched = set()
            for fields, pos_i in zip(members, positives):
                outside = np.setdiff1d(all_fields, fields, assume_unique=True)
                if len(outside) == 0:
                    continue
                neg_i = rng.choice(outside, size=config.negatives_per_example,
                                   replace=True)
                context = fields[fields != pos_i]
                loss, g_in, g_pos, g_negs = hinge_loss_and_grads_loop(
                    vectors[context].mean(axis=0), vectors[pos_i], vectors[neg_i],
                    config.margin
                )
                epoch_loss += loss
                update[context] += g_in / len(context)
                update[pos_i] += g_pos
                np.add.at(update, neg_i, g_negs)
                touched.update([*context.tolist(), pos_i, *neg_i.tolist()])
            vectors -= lr * update
            _project_max_norm(vectors, sorted(touched))
        epoch_losses.append(epoch_loss / len(trainable))
    return vectors, epoch_losses



# The minibatch trainer whose backward pass took the gradient of every
# (bag, target) pair of the batch's target block and summed it per row by a
# stable sort and ``np.add.reduceat``: the reference of the trainer that
# takes only the terms of nonzero weight.

def _inverse(x):
    """1 / x, with 0 where x is 0."""
    return np.divide(1.0, x, out=np.zeros_like(x), where=x != 0.0)


def hinge_loss_and_grads_dense(inputs, targets, margin):
    """Per-bag loss sum_n max(0, margin - cos(a, t_0) + cos(a, t_n)) for a
    batch of inputs a (bags x dim) and targets (bags x (1 + k) x dim) whose
    row 0 is the positive, with its analytic gradients w.r.t. the inputs and
    every target. A zero-norm vector has cosine 0 and passes no gradient."""
    na = np.sqrt(np.einsum("bd,bd->b", inputs, inputs))
    nt = np.sqrt(np.einsum("btd,btd->bt", targets, targets))
    inv = _inverse(na[:, None] * nt)
    cos = np.einsum("bd,btd->bt", inputs, targets) * inv
    hinge = margin - cos[:, :1] + cos[:, 1:]
    active = hinge > 0
    # each active negative adds cos(a, t_n) - cos(a, t_0) to the loss
    weight = np.concatenate((-active.sum(axis=1, keepdims=True), active), axis=1)
    w_inv = weight * inv
    w_cos = weight * cos
    # d cos(a, t) / d a = t / (|a| |t|) - cos a / |a|^2, and likewise for t
    g_in = (np.einsum("bt,btd->bd", w_inv, targets)
            - (w_cos.sum(axis=1) * _inverse(na * na))[:, None] * inputs)
    g_t = w_inv[:, :, None] * inputs[:, None, :]
    g_t -= targets * (w_cos * _inverse(nt * nt))[:, :, None]
    return np.where(active, hinge, 0.0).sum(axis=1), g_in, g_t


def train_embeddings_dense(p, config):
    """The minibatch trainer with the dense backward pass, kept verbatim
    apart from its logging and its return value (vectors, epoch losses)."""
    rows, flat = np.nonzero(p)  # row by row, each row's fields ascending
    sizes = np.bincount(rows)
    trainable = sizes >= 2
    flat, sizes = flat[trainable[rows]], sizes[trainable]
    n_bags = len(sizes)
    if not n_bags:
        raise TrainingError("no trainable bags (all bags have < 2 fields)")
    rng = np.random.default_rng(config.seed)
    n_fields = p.shape[1]
    vectors = rng.uniform(-1.0 / config.dim, 1.0 / config.dim,
                          size=(n_fields, config.dim))
    starts = np.cumsum(sizes) - sizes
    # the j-th field outside a sorted bag is j plus the count of bag entries
    # b_i with b_i - i <= j; these shifts give the draws rng.choice would
    # make from np.setdiff1d(all fields, bag)
    shifts = flat - (np.arange(len(flat)) - np.repeat(starts, sizes))
    batch = bags_per_batch(config)

    total_bags = config.epochs * n_bags
    done = 0
    epoch_losses = []
    for _ in range(config.epochs):
        order = rng.permutation(n_bags)
        epoch_loss = 0.0
        for lo in range(0, len(order), batch):
            bi = order[lo:lo + batch]
            lr = config.learning_rate * (1.0 - done / total_bags)
            done += len(bi)
            pos_at = starts[bi] + rng.integers(0, sizes[bi])
            # a bag of every field has no negative and only draws its positive
            keep = sizes[bi] < n_fields
            bi, pos_at = bi[keep], pos_at[keep]
            if not len(bi):
                continue
            n = sizes[bi]
            j = rng.integers(0, (n_fields - n)[:, None],
                             size=(len(bi), config.negatives_per_example))
            # the batch's bag entries, bag after bag; offsetting each bag's
            # shifts by its batch position keeps one searchsorted per batch
            first = np.cumsum(n) - n
            member = np.arange(n.sum()) - np.repeat(first - starts[bi], n)
            offset = np.arange(len(bi))[:, None] * (n_fields + 1)
            key = shifts[member] + np.repeat(offset, n)
            neg = j + np.searchsorted(key, j + offset, side="right") - first[:, None]
            context = flat[member[member != np.repeat(pos_at, n)]]
            inputs = np.add.reduceat(vectors[context], first - np.arange(len(bi)),
                                     axis=0) / (n - 1)[:, None]
            targets = np.concatenate((flat[pos_at][:, None], neg), axis=1)
            loss, g_in, g_t = hinge_loss_and_grads_dense(inputs, vectors[targets],
                                                         config.margin)
            epoch_loss += loss.sum()
            # input is the context mean, so its gradient splits evenly; a row
            # hit several times in the batch takes the sum of its gradients
            rows = np.concatenate((context, targets.ravel()))
            grads = np.concatenate((np.repeat(g_in / (n - 1)[:, None], n - 1, axis=0),
                                    g_t.reshape(-1, config.dim)))
            by_row = np.argsort(rows, kind="stable")
            rows = rows[by_row]
            runs = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
            touched = rows[runs]
            vectors[touched] -= lr * np.add.reduceat(grads[by_row], runs, axis=0)
            # max-norm projection of the touched rows
            norms = np.linalg.norm(vectors[touched], axis=1)
            over = norms > 1.0
            vectors[touched[over]] /= norms[over, None]
        epoch_losses.append(epoch_loss / n_bags)
    return vectors, epoch_losses

# The venue matcher that built every substring of a name before it tried the
# full name, and normalized whitespace with a regex: the reference of
# ``corpus.match_venue`` and ``corpus.normalize_venue``.

_SPLIT_RE = re.compile("[" + re.escape(SPLIT_CHARS) + "]")
_WS_RE = re.compile(r"\s+")


def normalize_venue(name: str) -> str:
    """Case-fold, trim, and collapse internal whitespace."""
    return _WS_RE.sub(" ", name.strip()).casefold()


def venue_substrings(name: str) -> list[str]:
    """Full name first, then the pieces obtained by splitting at any of
    ``. ; : / -`` in left-to-right order, trimmed, empties removed."""
    parts = [p.strip() for p in _SPLIT_RE.split(name)]
    return [name] + [p for p in parts if p and p != name]


def match_venue(name: str, vmap: VenueFieldMap):
    """Exact match on the full normalized name, else the first substring with
    an exact hit (flagged approximate), else None."""
    for i, sub in enumerate(venue_substrings(name)):
        hit = vmap.entries.get(normalize_venue(sub))
        if hit is not None:
            return hit, "approximate" if i else "exact"
    return None


# The two-pass record ingest that ``corpus.resolve_corpus`` replaced: one
# frozen object per valid row, then a walk over the list that codes each row.
# Kept verbatim but for the names, as the oracle of the one pass.

@dataclass(frozen=True)
class PublicationRecord:
    """One (researcher, venue, year, author-count) entry; the ingestion atom."""

    researcher_id: str
    venue_name: str
    year: int
    n_authors: int
    institution: str | None = None
    state: str | None = None


@dataclass
class LoadReport:
    records: list[PublicationRecord] = field(default_factory=list)
    issues: list[tuple[int, str]] = field(default_factory=list)  # (line, message)


def _year_and_authors(raw: dict) -> tuple[int, int]:
    """A record's integral ``year`` and ``n_authors`` (1 to 2^63 - 1);
    booleans and non-integral floats are rejected, integral floats and
    numeric strings are converted."""
    for key in ("year", "n_authors"):
        value = raw[key]
        if isinstance(value, bool) or (isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError(f"{key} must be an integer, got {value!r}")
    year = int(raw["year"])
    n_authors = int(raw["n_authors"])
    if n_authors < 1:
        raise ValueError(f"n_authors must be >= 1, got {n_authors}")
    if n_authors > 2**63 - 1:
        raise ValueError(f"n_authors {n_authors} exceeds {2**63 - 1}")
    return year, n_authors


def _id_text(raw: dict, key: str) -> str | None:
    """``raw[key]`` as text, None when absent or empty; only a string or an
    integer that is not a bool is an id."""
    value = raw.get(key)
    if value is None or value == "":
        return None
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"{key} must be a string or an integer, got {value!r}")
    return str(value)


def _validate_record(raw, line: int, year_range) -> PublicationRecord:
    if not isinstance(raw, dict):
        raise ValueError(f"record must be a JSON object, got {type(raw).__name__}")
    for key in _MANDATORY:
        if raw.get(key) in (None, ""):
            raise ValueError(f"missing mandatory field {key!r}")
    year, n_authors = _year_and_authors(raw)
    lo, hi = year_range
    if not lo <= year <= hi:
        raise ValueError(f"year {year} outside sane range [{lo}, {hi}]")
    record = PublicationRecord(
        researcher_id=_id_text(raw, "researcher_id"),
        venue_name=_id_text(raw, "venue"),
        year=year,
        n_authors=n_authors,
        institution=_id_text(raw, "institution"),
        state=_id_text(raw, "state"),
    )
    for key in ("researcher_id", "institution", "state"):  # ids that TSV rows hold
        bad = re.search("[\t\n\r]", getattr(record, key) or "")
        if bad:
            raise ValueError(f"{key} holds {bad[0]!r}, which a TSV cell cannot hold")
    return record


@utf8_input
def load_records(path, fmt="jsonl", year_range=YEAR_RANGE) -> LoadReport:
    """Load publication records; invalid rows are reported per line, never
    silently dropped."""
    if fmt not in FORMAT_PROFILES:
        raise ConfigError(f"unknown record format {fmt!r}")
    report = LoadReport()
    if fmt == "jsonl":
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError as e:
                    raise ParseError(f"invalid JSON: {e}", path=path, line=line_no)
                try:
                    report.records.append(_validate_record(raw, line_no, year_range))
                except (ValueError, TypeError) as e:
                    report.issues.append((line_no, str(e)))
        return report

    profile = FORMAT_PROFILES[fmt]
    aliases = profile["aliases"]
    with open(path, newline="", encoding="utf-8") as fh:
        handed = []  # (number, text) of the lines the reader took since the last row

        def numbered_lines():
            for item in enumerate(fh, start=1):
                handed.append(item)
                yield item[1]

        reader = csv.DictReader(numbered_lines(), delimiter=profile["delimiter"])
        if reader.fieldnames is None:
            raise ParseError("empty records file", path=path)
        colmap = {}
        for canonical in _MANDATORY + ("institution", "state"):
            for cand in aliases.get(canonical, [canonical]):
                if cand in reader.fieldnames:
                    colmap[canonical] = cand
                    break
        missing = [k for k in _MANDATORY if k not in colmap]
        if missing:
            raise ParseError(f"missing required columns {missing}", path=path)
        handed.clear()
        for row in reader:
            # a row starts on the first line taken for it that is not blank
            line_no = next(n for n, text in handed if text.strip("\r\n"))
            handed.clear()
            raw = {k: row.get(src) for k, src in colmap.items()}
            try:
                report.records.append(_validate_record(raw, line_no, year_range))
            except (ValueError, TypeError) as e:
                report.issues.append((line_no, str(e)))
    return report


def _entity_id(rec: PublicationRecord, kind: EntityKind):
    if kind is EntityKind.SCIENTIST:
        return rec.researcher_id
    if kind is EntityKind.INSTITUTION:
        return rec.institution
    return rec.state


def resolve_records(records, vmap: VenueFieldMap, taxonomy: FieldTaxonomy,
                    kind: EntityKind) -> ResolvedCorpus:
    """Match venues and aggregate records into entities of the given kind.

    Unmatched venues and (for institution/state) records missing that
    attribute are excluded and counted, never imputed.
    """
    vmap.validate_against(taxonomy)
    stats = MatchStats()
    entity_code: dict[str, int] = {}
    set_code: dict[tuple[str, ...], int] = {}
    hits = {}  # raw venue name -> (field-set code, match kind) or None
    entity, field_set, n_authors, year = [], [], [], []
    for rec in records:
        if rec.venue_name not in hits:
            hit = match_venue(rec.venue_name, vmap)
            hits[rec.venue_name] = (None if hit is None else (
                set_code.setdefault(tuple(sorted(hit[0])), len(set_code)), hit[1]))
        hit = hits[rec.venue_name]
        if hit is None:
            stats.unmatched += 1
            continue
        code, match_kind = hit
        if match_kind == "exact":
            stats.exact += 1
        else:
            stats.approximate += 1
        eid = _entity_id(rec, kind)
        if eid is None:
            stats.missing_attribute += 1
            continue
        entity.append(entity_code.setdefault(eid, len(entity_code)))
        field_set.append(code)
        n_authors.append(rec.n_authors)
        year.append(rec.year)
    return ResolvedCorpus(
        list(entity_code), list(set_code),
        *(np.array(c, dtype=np.int64) for c in (entity, field_set, n_authors, year)),
        kind, stats,
    )


def save_proximity_per_value(phi, path, mhash=""):
    lines = [
        f"# schema: {SCHEMA_PROXIMITY}",
        f"# model: {phi.model_tag}",
        f"# window: {phi.window}",
        f"# manifest_hash: {mhash}",
        "field_id\t" + "\t".join(phi.field_ids),
    ]
    for i, fid in enumerate(phi.field_ids):
        lines.append(fid + "\t" + "\t".join(f"{v:.17g}" for v in phi.values[i]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_embeddings_per_value(vectors, field_ids, path, mhash=""):
    lines = [f"# schema: {SCHEMA_EMBEDDING}", f"# manifest_hash: {mhash}"]
    for fid, vec in zip(field_ids, vectors):
        lines.append(fid + "\t" + "\t".join(f"{v:.17g}" for v in vec))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def value_rows_per_row(ids, values):
    """One TSV line per id: the id, then its row of ``values``, each as
    ``%.17g``; one format per row."""
    values = np.asarray(values)
    form = "%s\t" + "\t".join(["%.17g"] * values.shape[-1])
    return [form % (fid, *row.tolist()) for fid, row in zip(ids, values)]


@utf8_input
def load_proximity_per_token(path) -> ProximityMatrix:
    meta, meta_line = {}, {}
    with open(path, encoding="utf-8") as fh:
        lines = enumerate(fh, start=1)
        line_no, line = next(lines, (1, ""))
        while line.startswith("#"):
            key, _, val = line[1:].partition(":")
            meta[key.strip()] = val.strip()
            meta_line[key.strip()] = line_no
            line_no, line = next(lines, (line_no + 1, ""))
        if meta.get("schema") != SCHEMA_PROXIMITY:
            raise ParseError(
                f"unsupported proximity schema {meta.get('schema')!r}", path=path
            )
        missing = [key for key in ("model", "window") if key not in meta]
        if missing:
            raise ParseError(
                f"missing header {', '.join(missing)}", path=path, line=line_no
            )
        if meta["model"] not in MODEL_TAGS.values():
            raise ParseError(f"unknown model {meta['model']!r}", path=path,
                             line=meta_line["model"])
        try:
            window = TimeWindow.parse(meta["window"])
        except ConfigError as e:
            raise ParseError(str(e), path=path, line=meta_line["window"])
        if not line.startswith("field_id\t"):
            raise ParseError("expected the field_id header row", path=path, line=line_no)
        field_ids = line.rstrip("\n").split("\t")[1:]
        first_row = line_no + 1
        n = len(field_ids)
        values = np.zeros((n, n))
        i = 0
        for line_no, row_line in lines:
            parts = row_line.rstrip("\n").split("\t")
            if i == n:
                raise ParseError(f"more than {n} rows", path=path, line=line_no)
            if parts[0] != field_ids[i]:
                raise ParseError(
                    f"row order mismatch at {parts[0]!r}", path=path, line=line_no
                )
            if len(parts) != n + 1:
                raise ParseError(f"expected {n} values, got {len(parts) - 1}",
                                 path=path, line=line_no)
            try:
                values[i] = [float(v) for v in parts[1:]]
            except ValueError as e:
                raise ParseError(f"invalid value: {e}", path=path, line=line_no)
            if not np.isfinite(values[i]).all():
                raise ParseError("non-finite value", path=path, line=line_no)
            i += 1
    if i < n:
        raise ParseError(f"{n - i} of {n} rows missing", path=path, line=line_no + 1)
    if meta["model"] == "embedding":
        differs = (values != values.T).any(axis=1)
        if differs.any():
            i = int(differs.argmax())
            raise ParseError(f"embedding row {field_ids[i]!r} differs from its column",
                             path=path, line=first_row + i)
    return ProximityMatrix(
        values=values,
        field_ids=field_ids,
        model_tag=meta["model"],
        window=window,
    )


def plain_ints_per_value(values, lo, hi):
    """Each value as an int where it is an int (not a bool) or a short
    ASCII-digit string, within [lo, hi]; else None."""
    return [n if (type(v) is int or type(v) is str and v.isascii() and v.isdigit()
                  and len(v) < 19) and lo <= (n := int(v)) <= hi else None
            for v in values]


def midranks(a):
    """Row-wise 1-based ranks of a 2-D float array, tied values sharing the
    mean of their ranks; NaN entries are left out and stay NaN."""
    order = np.argsort(a, axis=1, kind="stable")  # NaN sorts last
    s = np.take_along_axis(a, order, axis=1)
    n = a.shape[1]
    pos = np.broadcast_to(np.arange(n), a.shape)
    first = np.ones(a.shape, dtype=bool)  # starts a tie group
    first[:, 1:] = s[:, 1:] != s[:, :-1]
    last = np.ones(a.shape, dtype=bool)  # ends a tie group
    last[:, :-1] = first[:, 1:]
    start = np.maximum.accumulate(np.where(first, pos, 0), axis=1)
    end = np.minimum.accumulate(np.where(last, pos, n)[:, ::-1], axis=1)[:, ::-1]
    mid = np.where(np.isnan(s), np.nan, (start + end + 2) / 2.0)
    ranks = np.empty_like(mid)
    np.put_along_axis(ranks, order, mid, axis=1)
    return ranks


def auroc_midranks(scores, cand, pos):
    """Row-wise Mann-Whitney AUROC from the midranks of each row's
    candidates, as (auroc, n_pos, n_neg); NaN where a row lacks a positive
    or a negative candidate."""
    ranks = midranks(np.where(cand, scores, np.nan))
    n_pos = pos.sum(axis=1)
    n_neg = cand.sum(axis=1) - n_pos
    u_stat = np.where(pos, ranks, 0.0).sum(axis=1) - n_pos * (n_pos + 1) / 2.0
    pairs = n_pos * n_neg
    auc = np.divide(u_stat, pairs, out=np.full(len(pairs), np.nan), where=pairs > 0)
    return auc, n_pos, n_neg


def rank_candidates_lexsort(omega, cand, field_ids):
    """(order, n_candidates): row i's candidates are the field indices
    order[i, :n_candidates[i]], by descending density, ties by field_id."""
    position = {f: i for i, f in enumerate(sorted(field_ids))}
    id_rank = np.array([position[f] for f in field_ids])
    key = np.where(cand, -omega, np.inf)
    order = np.lexsort((np.broadcast_to(id_rank, key.shape), key), axis=-1)
    return order, cand.sum(axis=1)


def rca_ix(dense):
    """Balassa index with the nonzero rows and columns gathered and scattered."""
    total = dense.sum()
    if total <= 0:
        raise ConfigError("total corpus mass is zero")
    row_sums = dense.sum(axis=1, keepdims=True)
    field_share = dense.sum(axis=0) / total
    out = np.zeros_like(dense)
    nz_rows = row_sums[:, 0] > 0
    nz_fields = field_share > 0
    out[np.ix_(nz_rows, nz_fields)] = (
        dense[np.ix_(nz_rows, nz_fields)] / row_sums[nz_rows]
    ) / field_share[nz_fields]
    return out


def density_ix(u, phi):
    """Relatedness density with the columns of positive phi row sums gathered
    and scattered."""
    row_sums = phi.sum(axis=1)
    numer = u.astype(np.float64) @ phi.T
    omega = np.zeros_like(numer)
    nz = row_sums > 0
    omega[:, nz] = numer[:, nz] / row_sums[nz]
    return omega


def predict_loop(entity_ids, n_records, omega, cand, field_ids, names, top,
                 entities, rca_window):
    """(TSV, stderr) of the predict command, written one entity at a time:
    the asked entities, or every entity with records in the RCA window, each
    with its top candidates or a warning or note of why it was skipped."""
    order, n_candidates = rank_candidates_lexsort(omega, cand, field_ids)
    row_of = {eid: i for i, eid in enumerate(entity_ids)}
    lines = ["entity_id\trank\tfield_id\tfield_name\tdensity"]
    err = []
    for eid in entities or itertools.compress(entity_ids, n_records):
        i = row_of.get(eid)
        if i is None:
            err.append(f"warning: entity {eid!r} not found, skipped\n")
            continue
        if not n_records[i]:
            err.append(f"warning: entity {eid!r} has no record in window "
                       f"{rca_window}, skipped\n")
            continue
        if not n_candidates[i]:
            err.append(f"note: entity {eid!r} has no candidate fields\n")
            continue
        cols = order[i, :min(top, n_candidates[i])].tolist()
        for rank_no, j, w in zip(itertools.count(1), cols, omega[i, cols].tolist()):
            lines.append(f"{eid}\t{rank_no}\t{field_ids[j]}\t{names[j]}\t{w:.6f}")
    return "\n".join(lines) + "\n", "".join(err)
