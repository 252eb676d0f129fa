"""Command-line pipeline: ingest -> fit -> predict -> evaluate -> backbone,
with persisted artifacts so each stage re-runs independently."""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from pathlib import Path

import numpy as np

from . import artifacts, corpus as corpus_mod, freq_model
from . import prediction_eval as pe
from . import specialization as spec_mod
from .corpus import FORMAT_PROFILES, EntityKind, FieldTaxonomy, VenueFieldMap
from .errors import ConfigError, ResearchSpaceError
from .presence import TimeWindow, check_windows, contribution_matrix, presence_matrix
from .specialization import TransitionKind


def _check_fields(phi, taxonomy):
    """Reject a proximity matrix whose fields are not the taxonomy's, in order."""
    if phi.field_ids != taxonomy.field_ids:
        raise ConfigError("proximity artifact fields differ from the taxonomy's, "
                          "as a set or in order; run fit again with this taxonomy")


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


def _window(text):
    """argparse type of a START:END window option."""
    try:
        return TimeWindow.parse(text)
    except ConfigError as e:
        raise argparse.ArgumentTypeError(str(e))


def _int_at_least(low):
    """argparse type of an integer option that must be at least low."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


def _option(*flags, **kwargs):
    """One option: add_argument's arguments, with its default shown in --help."""
    if kwargs.get("default") is not None:
        kwargs.setdefault("help", "default: %(default)s")
    return flags, kwargs


def _command(*options):
    """Make fn a subcommand, named like fn with '-' for '_', taking options."""
    def register(fn):
        fn.options = options
        return fn
    return register


@_command(
    _option("--records", required=True),
    _option("--venue-map", dest="venue_map_path", required=True),
    _option("--taxonomy", dest="taxonomy_path", required=True),
    _option("--kind", choices=[k.value for k in EntityKind], default="scientist"),
    _option("--format", dest="fmt", choices=sorted(FORMAT_PROFILES), default="jsonl"),
    _option("--out", dest="out_dir", required=True),
)
def ingest(records, venue_map_path, taxonomy_path, kind, fmt, out_dir):
    """Resolve venues and aggregate records into an entity corpus."""
    taxonomy = FieldTaxonomy.from_file(taxonomy_path)
    vmap = VenueFieldMap.from_file(venue_map_path)
    resolved, issues = corpus_mod.resolve_corpus(
        records, vmap, taxonomy, EntityKind(kind), fmt=fmt
    )
    for line_no, msg in issues:
        print(f"warning: line {line_no}: {msg}", file=sys.stderr)
    out = Path(out_dir)
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
    artifacts.write_json(out / "match_report.json", match_report)
    total = max(stats.total, 1)
    print(
        f"resolved {len(resolved)} records "
        f"(exact {stats.exact / total:.1%}, "
        f"exact+approx {(stats.exact + stats.approximate) / total:.1%})"
    )


@_command(
    _option("--corpus", dest="corpus_path", required=True),
    _option("--taxonomy", dest="taxonomy_path", required=True),
    _option("--window", required=True, type=_window),
    _option("--theta", type=float, default=0.05),
    _option("--model", required=True, choices=["freq", "emb"]),
    _option("--dim", type=int, default=100),
    _option("--epochs", type=int, default=10),
    _option("--lr", type=float, default=0.05),
    _option("--negatives", type=int, default=10),
    _option("--margin", type=float, default=0.05),
    _option("--seed", type=_int_at_least(0), default=0),
    _option("--out", dest="out_dir", required=True),
)
def fit(corpus_path, taxonomy_path, window, theta, model, dim, epochs, lr,
        negatives, margin, seed, out_dir):
    """Fit a proximity matrix (frequentist or embedding) on a time window."""
    if model == "emb":
        from . import emb_model  # imported only when an embedding is fit

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
        values = freq_model.proximity_freq(freq_model.copresence(p))
    else:
        manifest["embedding_config"] = {
            **{k: v for k, v in vars(config).items() if k != "seed"},
            "bags_per_batch": emb_model.bags_per_batch(config),
        }
        embedding = emb_model.train_embeddings(p, config)
        values = emb_model.proximity_emb(embedding.vectors)
    phi = freq_model.ProximityMatrix(
        values, list(taxonomy.field_ids),
        "frequentist" if model == "freq" else "embedding", window)
    out = Path(out_dir)
    mhash = artifacts.write_manifest(manifest, out / "manifest.json")
    artifacts.save_proximity(phi, out / "phi.tsv", mhash=mhash)
    if model == "emb":
        artifacts.save_embeddings(
            embedding.vectors, phi.field_ids, out / "embeddings.tsv", mhash=mhash
        )
    print(f"wrote {out / 'phi.tsv'} ({phi.model_tag}, window {window})")


@_command(
    _option("--phi", dest="phi_path", required=True),
    _option("--corpus", dest="corpus_path", required=True),
    _option("--taxonomy", dest="taxonomy_path", required=True),
    _option("--rca-window", required=True, type=_window),
    _option("--transition", required=True,
            choices=sorted(k.value for k in TransitionKind)),
    _option("--top", type=_int_at_least(1), default=10),
    _option("--entity", dest="entities", action="append"),
    _option("--out", dest="out_path"),
)
def predict(phi_path, corpus_path, taxonomy_path, rca_window, transition, top,
            entities, out_path):
    """Rank candidate new fields per entity by relatedness density."""
    taxonomy = FieldTaxonomy.from_file(taxonomy_path)
    resolved = artifacts.load_corpus(corpus_path)
    phi = artifacts.load_proximity(phi_path)
    _check_fields(phi, taxonomy)
    kind = TransitionKind(transition)
    n_records, r = _rca(resolved, taxonomy, rca_window)
    u, cand = spec_mod.indicator(r, kind), spec_mod.candidate_mask(r, kind)
    del r
    omega = spec_mod.density(u, phi.values)
    order, n_candidates = pe.rank_candidates(omega, cand, top)
    if entities:
        row_of = {eid: i for i, eid in enumerate(resolved.entity_ids)}
        rows = np.array([row_of.get(eid, -1) for eid in entities], dtype=np.intp)
    else:
        rows = np.flatnonzero(n_records)
    in_window = (rows >= 0) & (n_records[rows] > 0)
    ranked = in_window & (n_candidates[rows] > 0)
    for j in np.flatnonzero(~ranked).tolist():  # in the order asked
        eid = entities[j] if entities else resolved.entity_ids[rows[j]]
        if rows[j] < 0:
            print(f"warning: entity {eid!r} not found, skipped", file=sys.stderr)
        elif not in_window[j]:
            print(f"warning: entity {eid!r} has no record in window "
                  f"{rca_window}, skipped", file=sys.stderr)
        else:
            print(f"note: entity {eid!r} has no candidate fields", file=sys.stderr)
    # one line per entity asked and rank shown, with its row and column
    which, rank = np.nonzero(in_window[:, None]
                             & (n_candidates[rows, None] > np.arange(order.shape[1])))
    cells = rows[which]
    cols = order[cells, rank]
    labels = [f"{fid}\t{taxonomy.field(fid).name}" for fid in phi.field_ids]
    lines = ["entity_id\trank\tfield_id\tfield_name\tdensity"]
    lines += ["%s\t%d\t%s\t%.6f" % line for line in zip(
        map(resolved.entity_ids.__getitem__, cells.tolist()), (rank + 1).tolist(),
        map(labels.__getitem__, cols.tolist()), omega[cells, cols].tolist())]
    text = "\n".join(lines) + "\n"
    if out_path:
        artifacts.write_atomic(out_path, text)
    else:
        print(text, end="")


@_command(
    _option("--phi-a", dest="phi_a_path", required=True),
    _option("--phi-b", dest="phi_b_path"),
    _option("--corpus", dest="corpus_path", required=True),
    _option("--taxonomy", dest="taxonomy_path", required=True),
    _option("--fit", dest="fit_window", required=True, type=_window),
    _option("--rca", dest="rca_window", required=True, type=_window),
    _option("--test", dest="test_window", required=True, type=_window),
    _option("--transition", required=True,
            choices=sorted(k.value for k in TransitionKind)),
    _option("--full-candidates", action="store_true",
            help="Rank the whole U=0 set instead of source-stage fields."),
    _option("--permutations", type=int, default=10000),
    _option("--seed", type=_int_at_least(0), default=0),
    _option("--out", dest="out_dir", required=True),
)
def evaluate(phi_a_path, phi_b_path, corpus_path, taxonomy_path, fit_window,
             rca_window, test_window, transition, full_candidates, permutations,
             seed, out_dir):
    """Score predicted transitions against the test window with AUROC."""
    check_windows(fit_window, rca_window, test_window)
    if phi_b_path and permutations < pe.MIN_PERMUTATIONS:
        raise ConfigError(f"--permutations must be >= {pe.MIN_PERMUTATIONS} "
                          f"to compare two models, got {permutations}")
    phis = [artifacts.load_proximity(path) for path in (phi_a_path, phi_b_path) if path]
    for phi in phis:
        if str(phi.window) != str(fit_window):
            raise ConfigError(
                f"proximity artifact window {phi.window} differs from --fit {fit_window}")
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

    n_records, r = _rca(resolved, taxonomy, rca_window)
    u = spec_mod.indicator(r, kind)
    n_after, r_after = _rca(resolved, taxonomy, test_window)
    # which fields are ranked and which transitioned does not depend on phi
    cand = spec_mod.candidate_mask(r, kind, full_u_zero=full_candidates)
    realized = spec_mod.realized_mask(r, r_after, kind)
    del r, r_after
    in_rca = n_records > 0

    lines = ["entity_id\tkind\ttransition\tmodel\tauroc\tn_pos\tn_neg"]
    # entities with records in the test window only have no RCA to rank from
    summary = {"test_window_only": int(np.count_nonzero(n_after[~in_rca]))}
    scored = []
    for phi in phis:
        auc, n_pos, n_neg = pe.auroc(spec_mod.density(u, phi.values), cand, realized)
        rows = np.flatnonzero(in_rca & ~np.isnan(auc))
        labels = f"{resolved.kind.value}\t{transition}\t{phi.model_tag}"
        lines += ["%s\t%s\t%.6f\t%d\t%d" % (resolved.entity_ids[i], labels, *scores)
                  for i, *scores in zip(rows.tolist(), auc[rows].tolist(),
                                        n_pos[rows].tolist(), n_neg[rows].tolist())]
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
    artifacts.write_atomic(out / "auroc.tsv", "\n".join(lines) + "\n")
    print(artifacts.write_json(out / "summary.json", summary), end="")


@_command(
    _option("--phi", dest="phi_path", required=True),
    _option("--taxonomy", dest="taxonomy_path", required=True),
    _option("--mode", choices=["disparity", "mst-threshold"], default="disparity"),
    _option("--alpha", type=float, default=0.20),
    _option("--p", dest="p_threshold", type=float, default=0.35),
    _option("--level", choices=["field", "intermediate"], default="intermediate"),
    _option("--format", dest="fmt", choices=["edgelist", "xmlgraph", "dot", "tsv"],
            default="edgelist"),
    _option("--out", dest="out_dir", required=True),
)
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
    ids, values = phi.field_ids, phi.values
    if level == "intermediate":
        ids, values = net.aggregate_to_intermediate(values, taxonomy)
    w = net.proximity_graph(values)
    if mode == "disparity":
        kept = net.disparity_filter(w, alpha)
    else:
        kept = net.mst_plus_threshold(w, p_threshold)
    labels, modularity = net.greedy_communities(kept)

    out = Path(out_dir)
    styles = net.node_styles(taxonomy, ids, level)
    if fmt in ("edgelist", "tsv"):
        name, text = "backbone.tsv", net.export_edgelist(kept, labels, ids)
    elif fmt == "xmlgraph":
        name, text = "backbone.graphml", net.export_graphml(kept, labels, ids, styles)
    else:
        name, text = "backbone.dot", net.export_dot(kept, labels, ids, styles)
    artifacts.write_atomic(out / name, text)
    rows = "".join(f"{u}\t{c}\n" for u, c in zip(ids, labels.tolist()))
    artifacts.write_atomic(out / "communities.tsv", "node\tcommunity\n" + rows)
    print(
        f"backbone: {len(ids)} nodes, {np.count_nonzero(kept) // 2} edges, "
        f"modularity {modularity:.4f}"
    )


@_command(
    _option("--corpus", dest="corpus_path", required=True),
    _option("--taxonomy", dest="taxonomy_path", required=True),
    _option("--window", type=_window),
    _option("--theta", type=float, default=0.05),
    _option("--out", dest="out_dir", required=True),
)
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
    for name, values in (
        ("ccdf_publications.tsv", n_records[in_window]),
        ("ccdf_active_fields.tsv", active_counts.tolist()),
    ):
        lines = ["value\tccdf", *(f"{v:.10g}\t{c:.10g}" for v, c in pe.ccdf(values))]
        artifacts.write_atomic(out / name, "\n".join(lines) + "\n")
    print(f"wrote CCDF tables to {out}")


def main(args=None, prog_name=None):
    """Build research spaces from publication records and predict field entry."""
    if args is None:  # a process of its own, whose objects the OS frees at exit:
        atexit.register(gc.freeze)  # the final collections need not walk them
    parser = argparse.ArgumentParser(prog=prog_name or "research-space",
                                     description=main.__doc__, allow_abbrev=False)
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="Log progress to stderr: -v for INFO, -vv for DEBUG.")
    commands = parser.add_subparsers(dest="command", required=True)
    for fn in (ingest, fit, predict, evaluate, backbone, export_stats):
        sub = commands.add_parser(fn.__name__.replace("_", "-"), help=fn.__doc__,
                                  description=fn.__doc__, allow_abbrev=False)
        for flags, kwargs in fn.options:
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(run=fn)
    options = vars(parser.parse_args(args))
    del options["command"]
    verbose, run = options.pop("verbose"), options.pop("run")

    # logging loads for -v, or when loaded already: an earlier run in this
    # process may have left its level and handler. Otherwise the embedding's
    # INFO records fall below logging's default WARNING level, unprinted.
    if verbose or "logging" in sys.modules:
        import logging

        logger = logging.getLogger(__package__)
        logger.setLevel(max(logging.DEBUG, logging.WARNING - 10 * verbose))
        # one handler on this invocation's stderr, however often main runs
        logger.handlers = [logging.StreamHandler()]
    # toolkit errors to exit codes: config or usage -> 2, runtime -> 1
    try:
        run(**options)
    except (ConfigError, FileExistsError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError) as e:
        print(f"config error: {e}", file=sys.stderr)
        sys.exit(2)
    except ResearchSpaceError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)
    except BrokenPipeError:
        # the reader of stdout is gone: exit 1 without a traceback, and keep
        # the interpreter's final flush from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
