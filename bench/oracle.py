"""Independent oracles for the pipeline benchmark's output checks.

Everything here is recomputed with plain numpy from the generator's planted
truth and from the files the CLI wrote; nothing imports the package under
test. Each ``check_*`` function returns a list of failure messages, empty when
the output is correct.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from gen import N_FIELDS, UNMATCHED, field_id, intermediate_of

THETA = 0.05  # the CLI's default presence threshold
PRINTED = 5e-7  # half a unit in the 6th decimal the CLI prints AUROC and density with
TIE = 1e-12  # density differences below this are summation-order noise


def entity_label(kind, code):
    return f"R{code:06d}" if kind == "scientist" else f"INST{code:03d}"


class Oracle:
    """The resolved corpus implied by the planted truth, and the matrices the
    paper defines on it: X, P, phi_freq, RCA and relatedness density."""

    def __init__(self, truth, kind):
        self.kind = kind
        self.truth = truth
        matched = truth.name_kind != UNMATCHED
        entity = truth.researcher if kind == "scientist" else truth.institution
        keep = matched & (entity >= 0)
        self.planted = dict(truth.counts(),
                            missing_attribute=int((matched & (entity < 0)).sum()),
                            resolved_records=int(keep.sum()))
        self.entity = entity[keep]
        self.year = truth.year[keep]
        self.n_authors = truth.n_authors[keep]
        self.venue = truth.venue[keep]

    def contribution(self, lo, hi):
        """X over the inclusive window: (entity labels in first-seen order,
        dense entity x field array), each record adding 1/(n_p m_p) to each
        of its venue's fields."""
        sel = (self.year >= lo) & (self.year <= hi)
        ent = self.entity[sel]
        codes, first = np.unique(ent, return_index=True)
        order = codes[np.argsort(first)]
        row_of = np.empty(codes.max() + 1 if len(codes) else 0, dtype=np.int64)
        row_of[order] = np.arange(len(order))
        fields = [self.truth.venue_fields[v] for v in self.venue[sel]]
        m = np.array([len(f) for f in fields])
        rows = np.repeat(row_of[ent], m)
        cols = np.concatenate(fields) if fields else np.zeros(0, dtype=np.int64)
        vals = np.repeat(1.0 / (self.n_authors[sel] * m), m)
        x = np.zeros((len(order), N_FIELDS))
        np.add.at(x, (rows, cols), vals)  # unbuffered: record order
        return [entity_label(self.kind, c) for c in order], x

    def publication_counts(self, lo, hi):
        sel = (self.year >= lo) & (self.year <= hi)
        return np.unique(self.entity[sel], return_counts=True)[1]


def phi_freq(x):
    p = (x > THETA).astype(np.int64)
    m = p.T @ p
    counts = p.sum(axis=0)
    phi = np.zeros((N_FIELDS, N_FIELDS))
    nz = counts > 0
    phi[:, nz] = m[:, nz] / counts[nz]
    return phi


def trainable_bags(x):
    """(bags, trainable bags): entities present in >= 1 and >= 2 fields."""
    n = (x > THETA).sum(axis=1)
    return int((n >= 1).sum()), int((n >= 2).sum())


def rca(x):
    row = x.sum(axis=1, keepdims=True)
    share = x.sum(axis=0) / x.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (x / row) / share
    return np.nan_to_num(r, nan=0.0, posinf=0.0)


def density(u, phi):
    row = phi.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = (u.astype(np.float64) @ phi.T) / row
    return np.nan_to_num(omega, nan=0.0, posinf=0.0)


def candidates(r_before, transition, full_candidates=False):
    """Fields ranked for one transition kind: inactive ones for 0A; for ND
    and ID the Nascent (0, 0.5) or Intermediate [0.5, 1) ones, or every
    field not yet Developed with full candidates."""
    if transition == "0A":
        return r_before == 0
    if full_candidates:
        return r_before <= 1.0
    return source_stage(r_before, transition)


def source_stage(r_before, transition):
    if transition == "ND":
        return (r_before > 0) & (r_before < 0.5)
    return (r_before >= 0.5) & (r_before < 1.0)


def positives(r_before, r_after, transition):
    """Realized transitions: entering a field, or reaching Developed
    (RCA >= 1) from the source stage."""
    if transition == "0A":
        return (r_before == 0) & (r_after > 0)
    return source_stage(r_before, transition) & (r_after >= 1.0)


def indicator(r_before, transition):
    """U: RCA > 0 for 0A, RCA > 1 for the transitions to Developed."""
    return r_before > 0 if transition == "0A" else r_before > 1


def read_phi(path):
    """(meta, field ids, values) of a phi.tsv artifact."""
    meta, rows, header = {}, [], None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            meta[key.strip()] = val.strip()
        elif header is None:
            header = line.split("\t")[1:]
        else:
            rows.append([float(v) for v in line.split("\t")[1:]])
    return meta, header, np.array(rows)


def _tsv_rows(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines[1:] if line]


# --- checks ---------------------------------------------------------------

def check_match_report(path, oracle):
    got = json.loads(Path(path).read_text())
    return [f"match_report {k}: got {got.get(k)}, planted {v}"
            for k, v in oracle.planted.items() if got.get(k) != v]


def check_phi_freq(path, expected, window):
    meta, fids, phi = read_phi(path)
    errs = []
    if meta.get("model") != "frequentist" or meta.get("window") != window:
        errs.append(f"{path}: header {meta}")
    if fids != [field_id(f) for f in range(N_FIELDS)] or phi.shape != expected.shape:
        return errs + [f"{path}: field axis or shape differs"]
    diff = np.abs(phi - expected).max()
    if not diff <= 1e-12:
        errs.append(f"{path}: max |phi - oracle| = {diff:.3g} > 1e-12")
    return errs


def check_phi_emb(path):
    _, fids, phi = read_phi(path)
    errs = []
    if phi.shape != (N_FIELDS, N_FIELDS) or not np.isfinite(phi).all():
        return [f"{path}: shape {phi.shape} or non-finite values"]
    if np.abs(phi - phi.T).max() > 1e-12:
        errs.append(f"{path}: not symmetric")
    if phi.min() < 0 or phi.max() > 1 + 1e-12:
        errs.append(f"{path}: values outside [0, 1]")
    if not np.all(np.diag(phi) == 1.0):
        errs.append(f"{path}: diagonal is not 1")
    return errs


def check_predict(path, entities, r_before, phi, top=10):
    """Every entity's top-k against the oracle density ranking. Positions
    whose oracle densities differ by at most TIE may come in either order."""
    cand = candidates(r_before, "0A")
    omega = density(indicator(r_before, "0A"), phi)
    got = {}
    for eid, rank, fid, _name, score in _tsv_rows(path):
        got.setdefault(eid, []).append((int(rank), fid, float(score)))
    expected_ids = {e for e, c in zip(entities, cand) if c.any()}
    errs = []
    if set(got) != expected_ids:
        errs.append(f"{path}: {len(got)} entities ranked, oracle expects {len(expected_ids)}")
    findex = {f: i for i, f in enumerate(field_id(f) for f in range(N_FIELDS))}
    for i, eid in enumerate(entities):
        if eid not in got:
            continue
        cols = np.flatnonzero(cand[i])
        ranked = sorted(omega[i, cols], reverse=True)[:top]
        items = got[eid]
        if [r for r, _, _ in items] != list(range(1, len(ranked) + 1)):
            errs.append(f"{path}: {eid} has ranks {[r for r, _, _ in items]}")
            continue
        for (_, fid, score), want in zip(items, ranked):
            j = findex.get(fid)
            if j is None or not cand[i, j]:
                errs.append(f"{path}: {eid} ranks non-candidate {fid}")
            elif abs(omega[i, j] - want) > TIE or abs(score - omega[i, j]) > PRINTED + TIE:
                errs.append(f"{path}: {eid} {fid} at wrong rank or score {score}")
        if len(errs) > 20:
            break
    return errs


def expected_auroc(entities, r_before, after, transition, full_candidates, phi):
    """Per scored entity: (auroc, n_pos, n_neg, slack). The AUROC counts
    positive-negative pairs by the Mann-Whitney rule, ties 0.5; slack bounds
    what summation-order noise on near-tied pairs may move it by."""
    after_ids, r_after_rows = after
    pos_of = {e: i for i, e in enumerate(after_ids)}
    r_after = np.zeros_like(r_before)
    for i, e in enumerate(entities):
        if e in pos_of:
            r_after[i] = r_after_rows[pos_of[e]]
    cand = candidates(r_before, transition, full_candidates)
    pos = positives(r_before, r_after, transition)
    omega = density(indicator(r_before, transition), phi)
    out = {}
    for i, eid in enumerate(entities):
        c = cand[i]
        sp = omega[i, c & pos[i]]
        sn = omega[i, c & ~pos[i]]
        if len(sp) == 0 or len(sn) == 0:
            continue
        d = sp[:, None] - sn[None, :]
        pairs = d.size
        near = np.abs(d) <= TIE
        wins = (d > TIE).sum() + 0.5 * near.sum()
        slack = 0.5 * (near & (d != 0)).sum() / pairs
        out[eid] = (wins / pairs, len(sp), len(sn), slack)
    return out


def check_evaluate(out_dir, tags, expected, n_entities, permutations):
    """auroc.tsv rows and summary.json for each model tag against the oracle;
    with two models, the p-value must be (count + 1) / (permutations + 1)."""
    out = Path(out_dir)
    rows = {}
    for eid, _kind, _tr, tag, auc, n_pos, n_neg in _tsv_rows(out / "auroc.tsv"):
        rows.setdefault(tag, {})[eid] = (float(auc), int(n_pos), int(n_neg))
    summary = json.loads((out / "summary.json").read_text())
    errs = []
    for tag, exp in zip(tags, expected):
        got = rows.get(tag, {})
        if set(got) != set(exp):
            errs.append(f"{out}: {tag} scored {len(got)} entities, oracle {len(exp)}")
            continue
        for eid, (auc, n_pos, n_neg, slack) in exp.items():
            g_auc, g_pos, g_neg = got[eid]
            if (g_pos, g_neg) != (n_pos, n_neg) or abs(g_auc - auc) > PRINTED + slack + 1e-9:
                errs.append(f"{out}: {tag} {eid} AUROC {got[eid]} != oracle "
                            f"{(round(auc, 6), n_pos, n_neg)}")
                break
        s = summary.get(tag, {})
        mean = float(np.mean([v[0] for v in exp.values()])) if exp else None
        slack = max((v[3] for v in exp.values()), default=0.0)
        if s.get("n") != len(exp) or s.get("excluded") != n_entities - len(exp):
            errs.append(f"{out}: summary {tag} n/excluded {s.get('n')}/{s.get('excluded')}")
        elif mean is not None and abs(s["mean"] - mean) > slack + 1e-9:
            errs.append(f"{out}: summary {tag} mean {s['mean']} != oracle {mean}")
    if len(tags) == 2:
        p = summary.get("p_value")
        n = permutations
        if p is None or not 0 < p <= 1 or abs(p * (n + 1) - round(p * (n + 1))) > 1e-6:
            errs.append(f"{out}: p_value {p} is not (count + 1) / {n + 1}")
    return errs


def _significant(phi, alpha):
    """Edges (i < j) that the disparity filter keeps at alpha, and the
    edges whose p-value lies too close to alpha to call."""
    w = np.where(np.eye(len(phi), dtype=bool), 0.0, phi)
    strength = w.sum(axis=1)
    degree = (w > 0).sum(axis=1)
    keep, unsure = set(), set()
    for i, j in zip(*np.nonzero(np.triu(w > 0))):
        ps = [(1 - w[i, j] / strength[k]) ** (degree[k] - 1) if degree[k] > 1 else 1.0
              for k in (i, j)]
        if min(ps) < alpha:
            keep.add((i, j))
        if min(abs(p - alpha) for p in ps) < 1e-9:
            unsure.add((i, j))
    return keep, unsure


def read_backbone(out_dir, ids):
    """Kept edges {(i, j): (weight, label)} and node -> community."""
    index = {n: i for i, n in enumerate(ids)}
    edges = {}
    lines = (Path(out_dir) / "backbone.tsv").read_text(encoding="utf-8").splitlines()
    for row in (line.split("\t") for line in lines if line):  # no header row
        i, j = sorted((index[row[0]], index[row[1]]))
        edges[(i, j)] = (float(row[2]), row[3] if len(row) > 3 else "")
    comm = {index[n]: c for n, c in _tsv_rows(Path(out_dir) / "communities.tsv")}
    return edges, comm


def modularity(n, edges, comm):
    """Weighted Newman modularity of a partition of nodes 0..n-1."""
    w = np.zeros((n, n))
    for (i, j), (wt, _) in edges.items():
        w[i, j] = w[j, i] = wt
    m = w.sum() / 2
    if m == 0:
        return 0.0
    labels = np.array([comm[i] for i in range(n)])
    strength = w.sum(axis=1)
    q = 0.0
    for c in np.unique(labels):
        members = labels == c
        q += (w[np.ix_(members, members)].sum() / (2 * m)
              - (strength[members].sum() / (2 * m)) ** 2)
    return q


def check_backbone_disparity(out_dir, phi, alpha, printed_modularity):
    """Every kept edge, and no other, passes the disparity test at alpha;
    weights, intra/inter labels and the printed modularity agree."""
    ids = [field_id(f) for f in range(N_FIELDS)]
    edges, comm = read_backbone(out_dir, ids)
    keep, unsure = _significant(phi, alpha)
    errs = []
    if (set(edges) ^ keep) - unsure:
        errs.append(f"{out_dir}: {len(edges)} edges kept, {len(keep)} pass the "
                    f"disparity test, {len((set(edges) ^ keep) - unsure)} differ")
    return errs + _check_edges(out_dir, edges, comm, phi, printed_modularity)


def _check_edges(out_dir, edges, comm, phi, printed_modularity):
    errs = []
    for (i, j), (wt, label) in edges.items():
        if abs(wt - phi[i, j]) > 1e-9 * max(1.0, phi[i, j]):
            errs.append(f"{out_dir}: edge weight {wt} != {phi[i, j]}")
            break
        if label != ("intra" if comm[i] == comm[j] else "inter"):
            errs.append(f"{out_dir}: edge label {label!r} disagrees with communities")
            break
    q = modularity(len(phi), edges, comm)
    if printed_modularity is None or abs(q - printed_modularity) > 6e-5:
        errs.append(f"{out_dir}: modularity printed {printed_modularity}, oracle {q:.6f}")
    return errs


def intermediate_phi(phi):
    """Mean phi over each pair of intermediates' cross-field pairs, f' != f."""
    g = np.zeros((N_FIELDS, N_FIELDS // 5))
    g[np.arange(N_FIELDS), [intermediate_of(f) for f in range(N_FIELDS)]] = 1.0
    off = phi - np.diag(np.diag(phi))
    pair_sum = g.T @ off @ g
    sizes = g.sum(axis=0)
    pairs = np.outer(sizes, sizes) - np.diag(sizes)
    return pair_sum / pairs


def _max_spanning_weight(n, weighted_edges):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    total = 0.0
    for w, i, j in sorted(weighted_edges, reverse=True):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            total += w
    return total


def check_backbone_mst(out_dir, phi, p, printed_modularity):
    """The kept graph holds every edge heavier than p and a maximum spanning
    forest of the intermediate-level graph (compared by total weight, so
    ties may pick either edge)."""
    agg = intermediate_phi(phi)
    n = len(agg)
    ids = [f"I{i + 1:02d}" for i in range(n)]
    edges, comm = read_backbone(out_dir, ids)
    full = [(agg[i, j], i, j) for i in range(n) for j in range(i + 1, n) if agg[i, j] > 0]
    heavy = {(i, j) for w, i, j in full if w > p}
    errs = []
    if not heavy <= set(edges):
        errs.append(f"{out_dir}: {len(heavy - set(edges))} edges above p={p} missing")
    kept = [(agg[i, j], i, j) for (i, j) in edges]
    if abs(_max_spanning_weight(n, kept) - _max_spanning_weight(n, full)) > 1e-9:
        errs.append(f"{out_dir}: kept graph holds no maximum spanning forest")
    return errs + _check_edges(out_dir, edges, comm, agg, printed_modularity)


def ccdf(values):
    vals = np.sort(np.asarray(values, dtype=np.float64))
    uniq, first = np.unique(vals, return_index=True)
    return np.column_stack([uniq, (len(vals) - first) / len(vals)])


def check_ccdf(path, values):
    got = np.array([[float(a), float(b)] for a, b in _tsv_rows(path)])
    want = ccdf(values)
    if got.shape != want.shape or np.abs(got - want).max() > 1e-9 * max(1.0, want.max()):
        return [f"{path}: CCDF differs from oracle"]
    return []
