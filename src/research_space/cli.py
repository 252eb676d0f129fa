"""Command-line pipeline: ingest -> fit -> predict -> evaluate -> backbone,
with persisted artifacts so each stage re-runs independently."""

from __future__ import annotations

import functools
import itertools
import json
import logging
import sys
from pathlib import Path

import click
import numpy as np

from . import artifacts, corpus as corpus_mod, emb_model, freq_model
from . import prediction_eval as pe
from . import specialization as spec_mod
from .corpus import FORMAT_PROFILES, EntityKind, FieldTaxonomy, VenueFieldMap
from .errors import ConfigError, ResearchSpaceError
from .presence import TimeWindow, WindowConfig, contribution_matrix, presence_matrix
from .specialization import TransitionKind


def pipeline_command(fn):
    """Map toolkit errors to exit codes: config/usage -> 2, runtime -> 1."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, FileExistsError, FileNotFoundError, IsADirectoryError,
                NotADirectoryError, PermissionError) as e:
            click.echo(f"config error: {e}", err=True)
            sys.exit(2)
        except ResearchSpaceError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(1)

    return wrapper


def _check_fields(phi, taxonomy):
    """Reject a proximity matrix whose fields are not the taxonomy's."""
    if phi.field_ids != taxonomy.field_ids:
        raise ConfigError("proximity artifact and taxonomy field sets differ")


def _contributions(resolved, taxonomy, window):
    """(n_records, X) of the records in the window, which must hold at least
    one: each corpus entity's record count there, and X on the corpus's
    entity axis."""
    n_records = np.bincount(resolved.entity[window.mask(resolved.year)],
                            minlength=len(resolved.entity_ids))
    if not n_records.any():
        raise ConfigError(f"no record of the corpus falls in window {window}")
    return n_records, contribution_matrix(resolved, taxonomy, window)


def _rca(resolved, taxonomy, window):
    """(n_records, RCA array) of the records in the window. X is freed on
    return, before the caller builds anything more from the RCA."""
    n_records, x = _contributions(resolved, taxonomy, window)
    return n_records, spec_mod.rca(x)


def _window(_ctx, _param, value):
    try:
        return TimeWindow.parse(value) if value is not None else None
    except ConfigError as e:
        raise click.BadParameter(str(e))


@click.group()
@click.option("-v", "--verbose", count=True,
              help="Log progress to stderr: -v for INFO, -vv for DEBUG.")
def main(verbose):
    """Build research spaces from publication records and predict field entry."""
    logger = logging.getLogger(__package__)
    logger.setLevel(max(logging.DEBUG, logging.WARNING - 10 * verbose))
    # one handler on this invocation's stderr, however often main runs
    logger.handlers = [logging.StreamHandler()]


@main.command()
@click.option("--records", required=True, type=click.Path())
@click.option("--venue-map", "venue_map_path", required=True, type=click.Path())
@click.option("--taxonomy", "taxonomy_path", required=True, type=click.Path())
@click.option("--kind", type=click.Choice([k.value for k in EntityKind]),
              default="scientist")
@click.option("--format", "fmt", type=click.Choice(sorted(FORMAT_PROFILES)),
              default="jsonl")
@click.option("--out", "out_dir", required=True, type=click.Path())
@pipeline_command
def ingest(records, venue_map_path, taxonomy_path, kind, fmt, out_dir):
    """Resolve venues and aggregate records into an entity corpus."""
    taxonomy = FieldTaxonomy.from_file(taxonomy_path)
    vmap = VenueFieldMap.from_file(venue_map_path)
    resolved, issues = corpus_mod.resolve_corpus(
        records, vmap, taxonomy, EntityKind(kind), fmt=fmt
    )
    for line_no, msg in issues:
        click.echo(f"warning: line {line_no}: {msg}", err=True)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": "ingest",
        "records": str(records),
        "kind": kind,
        "format": fmt,
    }
    mhash = artifacts.write_manifest(manifest, out / "manifest.json")
    artifacts.save_corpus(resolved, out / "corpus.jsonl", mhash=mhash)
    stats = resolved.match_stats
    match_report = {**vars(stats), "invalid_rows": len(issues),
                    "resolved_records": len(resolved)}
    artifacts._write_atomic(out / "match_report.json",
                            json.dumps(match_report, indent=2, sort_keys=True) + "\n")
    total = max(stats.total, 1)
    click.echo(
        f"resolved {len(resolved)} records "
        f"(exact {stats.exact / total:.1%}, "
        f"exact+approx {(stats.exact + stats.approximate) / total:.1%})"
    )


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--taxonomy", "taxonomy_path", required=True, type=click.Path())
@click.option("--window", required=True, callback=_window)
@click.option("--theta", default=0.05, show_default=True)
@click.option("--model", required=True, type=click.Choice(["freq", "emb"]))
@click.option("--dim", default=100, show_default=True)
@click.option("--epochs", default=10, show_default=True)
@click.option("--lr", default=0.05, show_default=True)
@click.option("--negatives", default=10, show_default=True)
@click.option("--margin", default=0.05, show_default=True)
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", "out_dir", required=True, type=click.Path())
@pipeline_command
def fit(corpus_path, taxonomy_path, window, theta, model, dim, epochs, lr,
        negatives, margin, seed, out_dir):
    """Fit a proximity matrix (frequentist or embedding) on a time window."""
    if model == "emb":
        config = emb_model.EmbeddingConfig(
            dim=dim, epochs=epochs, learning_rate=lr,
            negatives_per_example=negatives, margin=margin, seed=seed,
        )
    taxonomy = FieldTaxonomy.from_file(taxonomy_path)
    resolved = artifacts.load_corpus(corpus_path)
    p = presence_matrix(contribution_matrix(resolved, taxonomy, window), theta)
    if not p.any():
        raise ResearchSpaceError(
            f"no entity has a present field in window {window} (theta {theta}); "
            "there is nothing to fit"
        )
    manifest = {
        "command": "fit",
        "corpus": str(corpus_path),
        "kind": resolved.kind.value,
        "window": str(window),
        "theta": theta,
        "model": model,
        "seed": seed,
    }
    if model == "freq":
        values = freq_model.proximity_freq(freq_model.copresence(p), p)
    else:
        manifest["embedding_config"] = {
            "dim": dim, "epochs": epochs, "learning_rate": lr,
            "negatives_per_example": negatives, "margin": margin,
            "bags_per_batch": emb_model.bags_per_batch(config),
        }
        embedding = emb_model.train_embeddings(p, config)
        values = emb_model.proximity_emb(embedding.vectors)
    phi = freq_model.ProximityMatrix(
        values, list(taxonomy.field_ids),
        "frequentist" if model == "freq" else "embedding", window)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mhash = artifacts.write_manifest(manifest, out / "manifest.json")
    artifacts.save_proximity(phi, out / "phi.tsv", mhash=mhash)
    if model == "emb":
        artifacts.save_embeddings(
            embedding.vectors, phi.field_ids, out / "embeddings.tsv", mhash=mhash
        )
    click.echo(f"wrote {out / 'phi.tsv'} ({phi.model_tag}, window {window})")


@main.command()
@click.option("--phi", "phi_path", required=True, type=click.Path())
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--taxonomy", "taxonomy_path", required=True, type=click.Path())
@click.option("--rca-window", "rca_window", required=True, callback=_window)
@click.option("--transition", required=True,
              type=click.Choice(sorted(k.value for k in TransitionKind)))
@click.option("--top", default=10, show_default=True, type=click.IntRange(min=1))
@click.option("--entity", "entities", multiple=True)
@click.option("--out", "out_path", type=click.Path())
@pipeline_command
def predict(phi_path, corpus_path, taxonomy_path, rca_window, transition, top,
            entities, out_path):
    """Rank candidate new fields per entity by relatedness density."""
    taxonomy = FieldTaxonomy.from_file(taxonomy_path)
    resolved = artifacts.load_corpus(corpus_path)
    phi = artifacts.load_proximity(phi_path)
    _check_fields(phi, taxonomy)
    kind = TransitionKind(transition)
    n_records, r = _rca(resolved, taxonomy, rca_window)
    u, cand = spec_mod.indicator(r, kind), pe.candidate_mask(r, kind)
    del r
    omega = spec_mod.density(u, phi.values)
    order, n_candidates = pe.rank_candidates(omega, cand, phi.field_ids)
    row_of = {eid: i for i, eid in enumerate(resolved.entity_ids)}
    names = [taxonomy.field(fid).name for fid in phi.field_ids]
    lines = ["entity_id\trank\tfield_id\tfield_name\tdensity"]
    for eid in entities or itertools.compress(resolved.entity_ids, n_records):
        i = row_of.get(eid)
        if i is None:
            click.echo(f"warning: entity {eid!r} not found, skipped", err=True)
            continue
        if not n_records[i]:
            click.echo(f"warning: entity {eid!r} has no record in window "
                       f"{rca_window}, skipped", err=True)
            continue
        if not n_candidates[i]:
            click.echo(f"note: entity {eid!r} has no candidate fields", err=True)
            continue
        cols = order[i, :min(top, n_candidates[i])].tolist()
        for rank_no, j, w in zip(itertools.count(1), cols, omega[i, cols].tolist()):
            lines.append(f"{eid}\t{rank_no}\t{phi.field_ids[j]}\t{names[j]}\t{w:.6f}")
    text = "\n".join(lines) + "\n"
    if out_path:
        artifacts._write_atomic(out_path, text)
    else:
        click.echo(text, nl=False)


@main.command()
@click.option("--phi-a", "phi_a_path", required=True, type=click.Path())
@click.option("--phi-b", "phi_b_path", type=click.Path())
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--taxonomy", "taxonomy_path", required=True, type=click.Path())
@click.option("--fit", "fit_window", required=True, callback=_window)
@click.option("--rca", "rca_window", required=True, callback=_window)
@click.option("--test", "test_window", required=True, callback=_window)
@click.option("--transition", required=True,
              type=click.Choice(sorted(k.value for k in TransitionKind)))
@click.option("--full-candidates", is_flag=True,
              help="Rank the whole U=0 set instead of source-stage fields.")
@click.option("--permutations", default=10000, show_default=True)
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", "out_dir", required=True, type=click.Path())
@pipeline_command
def evaluate(phi_a_path, phi_b_path, corpus_path, taxonomy_path, fit_window,
             rca_window, test_window, transition, full_candidates, permutations,
             seed, out_dir):
    """Score predicted transitions against the test window with AUROC."""
    windows = WindowConfig(fit_window, rca_window, test_window)  # validates
    if phi_b_path and permutations < pe.MIN_PERMUTATIONS:
        raise ConfigError(f"--permutations must be >= {pe.MIN_PERMUTATIONS} "
                          f"to compare two models, got {permutations}")
    phis = [artifacts.load_proximity(path) for path in (phi_a_path, phi_b_path) if path]
    for phi in phis:
        if str(phi.window) != str(windows.fit_window):
            raise ConfigError(
                f"proximity artifact window {phi.window} differs from --fit "
                f"{windows.fit_window}"
            )
    if len(phis) == 2 and phis[0].model_tag == phis[1].model_tag:
        raise ConfigError(
            f"--phi-a {phi_a_path} and --phi-b {phi_b_path} are both "
            f"{phis[0].model_tag} models; their results would share one label"
        )
    taxonomy = FieldTaxonomy.from_file(taxonomy_path)
    for phi in phis:
        _check_fields(phi, taxonomy)
    resolved = artifacts.load_corpus(corpus_path)
    kind = TransitionKind(transition)

    n_records, r = _rca(resolved, taxonomy, windows.rca_window)
    u = spec_mod.indicator(r, kind)
    n_after, r_after = _rca(resolved, taxonomy, windows.test_window)
    # which fields are ranked and which transitioned does not depend on phi
    cand = pe.candidate_mask(r, kind, full_u_zero=full_candidates)
    realized = pe.realized_mask(r, r_after, kind)
    del r, r_after
    in_rca = n_records > 0

    lines = ["entity_id\tkind\ttransition\tmodel\tauroc\tn_pos\tn_neg"]
    # entities with records in the test window only have no RCA to rank from
    summary = {"test_window_only": int(np.count_nonzero(n_after[~in_rca]))}
    scored = []
    for phi in phis:
        auc, n_pos, n_neg = pe.auroc(spec_mod.density(u, phi.values), cand, realized)
        rows = np.flatnonzero(in_rca & ~np.isnan(auc))
        for i in rows:
            lines.append(
                f"{resolved.entity_ids[i]}\t{resolved.kind.value}\t{transition}"
                f"\t{phi.model_tag}\t{auc[i]:.6f}\t{n_pos[i]}\t{n_neg[i]}"
            )
        scored.append(auc[rows])
        summary[phi.model_tag] = {
            **(pe.summarize(auc[rows]) if len(rows) else {"n": 0}),
            "excluded": int(in_rca.sum()) - len(rows),
        }
    if len(scored) == 2:
        summary["test"] = "paired sign-flip"
        # a model that scores no entity leaves nothing to compare
        summary["p_value"] = (
            pe.compare_models(*scored, n_permutations=permutations, seed=seed)
            if all(len(s) for s in scored) else None
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts._write_atomic(out / "auroc.tsv", "\n".join(lines) + "\n")
    artifacts._write_atomic(out / "summary.json",
                            json.dumps(summary, indent=2, sort_keys=True) + "\n")
    click.echo(json.dumps(summary, indent=2, sort_keys=True))


@main.command()
@click.option("--phi", "phi_path", required=True, type=click.Path())
@click.option("--taxonomy", "taxonomy_path", required=True, type=click.Path())
@click.option("--mode", type=click.Choice(["disparity", "mst-threshold"]),
              default="disparity", show_default=True)
@click.option("--alpha", default=0.20, show_default=True)
@click.option("--p", "p_threshold", default=0.35, show_default=True)
@click.option("--level", type=click.Choice(["field", "intermediate"]),
              default="intermediate", show_default=True)
@click.option("--format", "fmt",
              type=click.Choice(["edgelist", "xmlgraph", "dot", "tsv"]),
              default="edgelist", show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@pipeline_command
def backbone(phi_path, taxonomy_path, mode, alpha, p_threshold, level, fmt,
             out_dir):
    """Extract a field-network backbone and its communities."""
    from . import network_analysis as net  # imported only when backbone runs

    taxonomy = FieldTaxonomy.from_file(taxonomy_path)
    phi = artifacts.load_proximity(phi_path)
    _check_fields(phi, taxonomy)
    if phi.model_tag != "embedding":
        raise ConfigError(
            "backbone analysis needs the symmetric embedding proximity matrix; "
            "the frequentist matrix is directed"
        )
    if level == "intermediate":
        phi = net.aggregate_to_intermediate(phi, taxonomy)
    ids, w = phi.field_ids, net.proximity_graph(phi)
    if mode == "disparity":
        kept = net.disparity_filter(w, alpha)
    else:
        kept = net.mst_plus_threshold(w, p_threshold)
    labels, modularity = net.greedy_communities(kept, ids)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    styles = net.node_styles(taxonomy, ids, level)
    if fmt in ("edgelist", "tsv"):
        name, text = "backbone.tsv", net.export_edgelist(kept, labels, ids)
    elif fmt == "xmlgraph":
        name, text = "backbone.graphml", net.export_graphml(kept, labels, ids, styles)
    else:
        name, text = "backbone.dot", net.export_dot(kept, labels, ids, styles)
    artifacts._write_atomic(out / name, text)
    rows = "".join(f"{u}\t{c}\n" for u, c in sorted(zip(ids, labels.tolist())))
    artifacts._write_atomic(out / "communities.tsv", "node\tcommunity\n" + rows)
    click.echo(
        f"backbone: {len(ids)} nodes, {np.count_nonzero(kept) // 2} edges, "
        f"modularity {modularity:.4f}"
    )


@main.command("export-stats")
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--taxonomy", "taxonomy_path", required=True, type=click.Path())
@click.option("--window", callback=_window)
@click.option("--theta", default=0.05, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@pipeline_command
def export_stats(corpus_path, taxonomy_path, window, theta, out_dir):
    """Emit plot-ready CCDF tables of per-entity publication and field counts."""
    taxonomy = FieldTaxonomy.from_file(taxonomy_path)
    resolved = artifacts.load_corpus(corpus_path)
    if window is None:
        if not len(resolved):
            raise ConfigError("corpus has no records")
        window = TimeWindow(int(resolved.year.min()), int(resolved.year.max()))
    n_records, x = _contributions(resolved, taxonomy, window)
    in_window = n_records > 0
    active_counts = presence_matrix(x, theta).sum(axis=1)[in_window]

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, values in (
        ("ccdf_publications.tsv", n_records[in_window]),
        ("ccdf_active_fields.tsv", active_counts.tolist()),
    ):
        lines = ["value\tccdf"]
        for v, c in pe.ccdf(values):
            lines.append(f"{v:.10g}\t{c:.10g}")
        artifacts._write_atomic(out / name, "\n".join(lines) + "\n")
    click.echo(f"wrote CCDF tables to {out}")


if __name__ == "__main__":
    main()
