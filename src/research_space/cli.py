"""Command-line pipeline: ingest -> fit -> predict -> evaluate -> backbone,
with persisted artifacts so each stage re-runs independently."""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import artifacts, corpus as corpus_mod, emb_model, freq_model
from . import network_analysis as net
from . import prediction_eval as pe
from . import specialization as spec_mod
from .corpus import EntityKind, FieldTaxonomy, VenueFieldMap
from .errors import ConfigError, ResearchSpaceError
from .presence import TimeWindow, WindowConfig, contribution_matrix, presence_matrix

TRANSITIONS = {
    "0A": spec_mod.TransitionKind.ZERO_TO_ACTIVE,
    "ND": spec_mod.TransitionKind.NASCENT_TO_DEVELOPED,
    "ID": spec_mod.TransitionKind.INTERMEDIATE_TO_DEVELOPED,
}


def pipeline_command(fn):
    """Map toolkit errors to exit codes: config/usage -> 2, runtime -> 1."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, FileNotFoundError) as e:
            click.echo(f"config error: {e}", err=True)
            sys.exit(2)
        except ResearchSpaceError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(1)

    return wrapper


def _window(_ctx, _param, value):
    try:
        return TimeWindow.parse(value) if value is not None else None
    except ConfigError as e:
        raise click.BadParameter(str(e))


@click.group()
def main():
    """Build research spaces from publication records and predict field entry."""


@main.command()
@click.option("--records", required=True, type=click.Path())
@click.option("--venue-map", "venue_map_path", required=True, type=click.Path())
@click.option("--taxonomy", "taxonomy_path", required=True, type=click.Path())
@click.option("--kind", type=click.Choice([k.value for k in EntityKind]),
              default="scientist")
@click.option("--format", "fmt", default="jsonl")
@click.option("--out", "out_dir", required=True, type=click.Path())
@pipeline_command
def ingest(records, venue_map_path, taxonomy_path, kind, fmt, out_dir):
    """Resolve venues and aggregate records into an entity corpus."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    taxonomy = FieldTaxonomy.from_file(taxonomy_path)
    vmap = VenueFieldMap.from_file(venue_map_path)
    report = corpus_mod.load_records(records, fmt=fmt)
    for line_no, msg in report.issues:
        click.echo(f"warning: line {line_no}: {msg}", err=True)
    resolved = corpus_mod.resolve_corpus(
        report.records, vmap, taxonomy, EntityKind(kind)
    )
    manifest = {
        "command": "ingest",
        "records": str(records),
        "kind": kind,
        "format": fmt,
    }
    mhash = artifacts.write_manifest(manifest, out / "manifest.json")
    artifacts.save_corpus(resolved, out / "corpus.jsonl", mhash=mhash)
    stats = resolved.match_stats
    match_report = {
        "exact": stats.exact,
        "approximate": stats.approximate,
        "unmatched": stats.unmatched,
        "missing_attribute": stats.missing_attribute,
        "invalid_rows": len(report.issues),
        "resolved_records": len(resolved.records),
    }
    (out / "match_report.json").write_text(
        json.dumps(match_report, indent=2, sort_keys=True) + "\n"
    )
    total = max(stats.total, 1)
    click.echo(
        f"resolved {len(resolved.records)} records "
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
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@pipeline_command
def fit(corpus_path, taxonomy_path, window, theta, model, dim, epochs, lr,
        negatives, margin, seed, out_dir):
    """Fit a proximity matrix (frequentist or embedding) on a time window."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    taxonomy = FieldTaxonomy.from_file(taxonomy_path)
    resolved = artifacts.load_corpus(corpus_path)
    x = contribution_matrix(resolved, taxonomy, window)
    p = presence_matrix(x, theta)
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
        phi = freq_model.proximity_freq(freq_model.copresence(p), p)
    else:
        config = emb_model.EmbeddingConfig(
            dim=dim, epochs=epochs, learning_rate=lr,
            negatives_per_example=negatives, margin=margin, seed=seed,
        )
        manifest["embedding_config"] = {
            "dim": dim, "epochs": epochs, "learning_rate": lr,
            "negatives_per_example": negatives, "margin": margin,
        }
        bags = emb_model.build_bags(p)
        embedding = emb_model.train_embeddings(bags, config, p.field_ids, window)
        phi = emb_model.proximity_emb(embedding)
    mhash = artifacts.write_manifest(manifest, out / "manifest.json")
    artifacts.save_proximity(phi, out / "phi.tsv", mhash=mhash)
    if model == "emb":
        artifacts.save_embeddings(
            embedding.vectors, embedding.field_ids, out / "embeddings.tsv", mhash=mhash
        )
    click.echo(f"wrote {out / 'phi.tsv'} ({phi.model_tag}, window {window})")


@main.command()
@click.option("--phi", "phi_path", required=True, type=click.Path())
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--taxonomy", "taxonomy_path", required=True, type=click.Path())
@click.option("--rca-window", "rca_window", required=True, callback=_window)
@click.option("--transition", required=True, type=click.Choice(sorted(TRANSITIONS)))
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
    if phi.field_ids != taxonomy.field_ids:
        raise ConfigError("proximity artifact and taxonomy field sets differ")
    kind = TRANSITIONS[transition]
    r = spec_mod.rca(contribution_matrix(resolved, taxonomy, rca_window))
    omega = spec_mod.density(spec_mod.indicator(r, kind), phi)
    ranked = pe.rank_candidates(omega, r, kind)
    by_entity = {rp.entity_id: rp for rp in ranked}
    wanted = list(entities) if entities else [rp.entity_id for rp in ranked]
    lines = ["entity_id\trank\tfield_id\tfield_name\tdensity"]
    for eid in wanted:
        rp = by_entity.get(eid)
        if rp is None:
            click.echo(f"warning: entity {eid!r} not found, skipped", err=True)
            continue
        if not rp.items:
            click.echo(f"note: entity {eid!r} has no candidate fields", err=True)
            continue
        for rank_no, (fid, score) in enumerate(rp.items[:top], start=1):
            lines.append(
                f"{eid}\t{rank_no}\t{fid}\t{taxonomy.field(fid).name}\t{score:.6f}"
            )
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
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
@click.option("--transition", required=True, type=click.Choice(sorted(TRANSITIONS)))
@click.option("--full-candidates", is_flag=True,
              help="Rank the whole U=0 set instead of source-stage fields.")
@click.option("--permutations", default=10000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@pipeline_command
def evaluate(phi_a_path, phi_b_path, corpus_path, taxonomy_path, fit_window,
             rca_window, test_window, transition, full_candidates, permutations,
             seed, out_dir):
    """Score predicted transitions against the test window with AUROC."""
    windows = WindowConfig(fit_window, rca_window, test_window)  # validates
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    taxonomy = FieldTaxonomy.from_file(taxonomy_path)
    resolved = artifacts.load_corpus(corpus_path)
    kind = TRANSITIONS[transition]

    r = spec_mod.rca(contribution_matrix(resolved, taxonomy, windows.rca_window))
    u = spec_mod.indicator(r, kind)
    r_after = spec_mod.rca(contribution_matrix(resolved, taxonomy, windows.test_window))

    groups = []
    for phi in phis:
        omega = spec_mod.density(u, phi)
        results, excluded = pe.evaluate_transition(
            omega, r, r_after, kind, full_u_zero=full_candidates
        )
        groups.append((phi.model_tag, results, excluded))
    # entities with records in the test window only have no RCA to rank from
    test_window_only = len(set(r_after.entity_ids) - set(r.entity_ids))
    p_value = None
    if len(groups) == 2:
        p_value = pe.compare_models(groups[0][1], groups[1][1],
                                    n_permutations=permutations, seed=seed)

    lines = ["entity_id\tkind\ttransition\tmodel\tauroc\tn_pos\tn_neg"]
    for tag, results, _ in groups:
        for res in results:
            lines.append(
                f"{res.entity_id}\t{resolved.kind.value}\t{transition}\t{tag}"
                f"\t{res.auroc:.6f}\t{res.n_pos}\t{res.n_neg}"
            )
    (out / "auroc.tsv").write_text("\n".join(lines) + "\n")

    summary = {"test_window_only": test_window_only}
    for tag, results, excluded in groups:
        if results:
            s = pe.summarize(results)
            summary[tag] = {
                "mean": s.mean, "median": s.median, "q1": s.q1, "q3": s.q3,
                "n": s.n, "excluded": excluded,
            }
        else:
            summary[tag] = {"n": 0, "excluded": excluded}
    if p_value is not None:
        summary["p_value"] = p_value
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    taxonomy = FieldTaxonomy.from_file(taxonomy_path)
    phi = artifacts.load_proximity(phi_path)
    if not phi.is_symmetric:
        raise ConfigError(
            "backbone analysis needs the symmetric embedding proximity matrix; "
            "the frequentist matrix is directed"
        )
    if level == "intermediate":
        phi = net.aggregate_to_intermediate(phi, taxonomy)
    g = net.proximity_graph(phi, taxonomy, level=level)
    if mode == "disparity":
        kept = net.disparity_filter(g, alpha)
    else:
        kept = net.mst_plus_threshold(g, p_threshold)
    partition = net.greedy_communities(kept)
    labels = net.classify_edges(kept, partition)

    if fmt in ("edgelist", "tsv"):
        (out / "backbone.tsv").write_text(net.export_edgelist(kept, labels))
    elif fmt == "xmlgraph":
        net.export_graphml(kept, out / "backbone.graphml", labels)
    else:
        (out / "backbone.dot").write_text(net.export_dot(kept, labels))
    part_lines = ["node\tcommunity"]
    for node in sorted(kept.nodes()):
        part_lines.append(f"{node}\t{partition.communities[node]}")
    (out / "communities.tsv").write_text("\n".join(part_lines) + "\n")
    click.echo(
        f"backbone: {kept.number_of_nodes()} nodes, {kept.number_of_edges()} edges, "
        f"modularity {partition.modularity:.4f}"
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    taxonomy = FieldTaxonomy.from_file(taxonomy_path)
    resolved = artifacts.load_corpus(corpus_path)
    if window is None:
        years = [rec.year for rec in resolved.records]
        if not years:
            raise ConfigError("corpus has no records")
        window = TimeWindow(min(years), max(years))
    x = contribution_matrix(resolved, taxonomy, window)
    p = presence_matrix(x, theta)

    pub_counts: dict[str, int] = {}
    for rec in resolved.records:
        if rec.year in window:
            pub_counts[rec.entity_id] = pub_counts.get(rec.entity_id, 0) + 1
    active_counts = np.asarray(p.values.sum(axis=1)).ravel()

    for name, values in (
        ("ccdf_publications.tsv", list(pub_counts.values())),
        ("ccdf_active_fields.tsv", active_counts.tolist()),
    ):
        lines = ["value\tccdf"]
        for v, c in pe.ccdf(values):
            lines.append(f"{v:.10g}\t{c:.10g}")
        (out / name).write_text("\n".join(lines) + "\n")
    click.echo(f"wrote CCDF tables to {out}")


if __name__ == "__main__":
    main()
