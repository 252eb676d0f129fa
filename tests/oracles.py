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
``disparity_filter_nx``, ``mst_plus_threshold_nx`` and
``greedy_communities_nx`` are the networkx-graph backbone layers that the
package replaced with layers on one weight array, kept as references on the
graph ``nx_graph`` builds from that array.
"""

from __future__ import annotations

import csv
import enum
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx
import numpy as np

from research_space.artifacts import SCHEMA_EMBEDDING, SCHEMA_PROXIMITY
from research_space.corpus import (
    _MANDATORY, FORMAT_PROFILES, YEAR_RANGE, EntityKind, FieldTaxonomy, MatchStats,
    ResolvedCorpus, VenueFieldMap, match_venue,
)
from research_space.errors import ConfigError, ParseError, utf8_input
from research_space.prediction_eval import auroc
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
    """Balassa index cell by cell from the definition."""
    x = np.asarray(x, dtype=float)
    total = x.sum()
    out = np.zeros_like(x)
    for s in range(x.shape[0]):
        row = x[s].sum()
        if row == 0:
            continue
        for f in range(x.shape[1]):
            col = x[:, f].sum()
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


def _validate_record(raw: dict, line: int, year_range) -> PublicationRecord:
    for key in _MANDATORY:
        if raw.get(key) in (None, ""):
            raise ValueError(f"missing mandatory field {key!r}")
    year, n_authors = _year_and_authors(raw)
    lo, hi = year_range
    if not lo <= year <= hi:
        raise ValueError(f"year {year} outside sane range [{lo}, {hi}]")
    inst = raw.get("institution") or None
    state = raw.get("state") or None
    return PublicationRecord(
        researcher_id=str(raw["researcher_id"]),
        venue_name=str(raw["venue"]),
        year=year,
        n_authors=n_authors,
        institution=inst,
        state=state,
    )


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
