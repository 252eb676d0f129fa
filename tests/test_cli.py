import json
import logging
import os
import re
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from click.testing import CliRunner

import research_space
import simulation
from conftest import corpus_rows, make_corpus
from research_space import emb_model
from research_space import prediction_eval as pe
from research_space.artifacts import load_corpus, load_proximity, save_corpus
from research_space.cli import main
from research_space.errors import ParseError

# Corruptions of a saved phi.tsv, and the line the error must name given the
# intact file's line count n (4 comment lines, the field header, one row per field).
PHI_CORRUPTIONS = {
    "truncated": (lambda lines: lines[:-2], lambda n: n - 1),
    "extra_row": (lambda lines: lines + [lines[-1]], lambda n: n + 1),
    "non_numeric": (lambda lines: lines[:-1] + [lines[-1] + "x"], lambda n: n),
    "short_row": (lambda lines: lines[:-1] + [lines[-1].rsplit("\t", 1)[0]],
                  lambda n: n),
    "nan_value": (lambda lines: lines[:-1] + [lines[-1].rsplit("\t", 1)[0] + "\tnan"],
                  lambda n: n),
    "missing_model": (lambda lines: [l for l in lines if not l.startswith("# model")],
                      lambda n: 4),
    "unknown_model": (lambda lines: ["# model: bogus" if l.startswith("# model") else l
                                     for l in lines],
                      lambda n: 2),
    "bad_window": (lambda lines: ["# window: abc" if l.startswith("# window") else l
                                  for l in lines],
                   lambda n: 3),
    "reversed_window": (lambda lines: ["# window: 2012:2000" if l.startswith("# window")
                                       else l for l in lines],
                        lambda n: 3),
    "header_only": (lambda lines: lines[:4], lambda n: 5),
    "bad_field_header": (lambda lines: lines[:4] + ["bogus"] + lines[5:], lambda n: 5),
}

# Corruptions of the header line of a saved corpus.jsonl.
CORPUS_HEADER_CORRUPTIONS = {
    "missing_kind": lambda h: {k: v for k, v in h.items() if k != "kind"},
    "unknown_kind": lambda h: {**h, "kind": "galaxy"},
    "unknown_match_stats_key": lambda h: {
        **h, "match_stats": {**h["match_stats"], "fuzzy": 3}},
    "not_an_object": lambda h: [h],
}


def _first(key, value):
    """A change that sets the first entry of the list under ``key``."""
    return lambda obj: {**obj, key: [value, *obj[key][1:]]}


# Corruptions of the tables and columns of a saved corpus.jsonl: the line
# changed (2 entity ids, 3 field sets, 4 record columns) and the change; a
# change returning None drops the line.
CORPUS_COLUMN_CORRUPTIONS = {
    "numeric_entity_id": (2, _first("entity_ids", 7)),
    "duplicate_entity_id": (2, lambda e: {"entity_ids": e["entity_ids"][:1] * 2
                                          + e["entity_ids"][2:]}),
    "empty_field_ids": (3, _first("field_sets", [])),
    "field_ids_string": (3, lambda s: {"field_sets": [s["field_sets"][0][0],
                                                      *s["field_sets"][1:]]}),
    "non_string_field_id": (3, _first("field_sets", ["F001", 7])),
    "zero_authors": (4, _first("n_authors", 0)),
    "negative_authors": (4, _first("n_authors", -2)),
    "boolean_authors": (4, _first("n_authors", True)),
    "fractional_year": (4, _first("year", 2000.7)),
    "null_year": (4, _first("year", None)),
    "code_out_of_range": (4, lambda c: _first("entity", max(c["entity"]) + 1)(c)),
    "unequal_lengths": (4, lambda c: {**c, "year": c["year"][:-1]}),
    "not_an_object": (4, lambda c: [c]),
    "missing_columns_line": (4, lambda c: None),
}


def write_taxonomy_file(taxonomy, path):
    lines = ["field_id\tfield_name\tintermediate_id\tintermediate_acronym"
             "\tmacro_id\tmacro_name"]
    for f in taxonomy.fields:
        im = taxonomy.intermediates[f.intermediate_id]
        lines.append(
            f"{f.field_id}\t{f.name}\t{im.intermediate_id}\t{im.acronym}"
            f"\t{im.macro_id}\t{taxonomy.macros[im.macro_id]}"
        )
    path.write_text("\n".join(lines) + "\n")


def write_pipeline_inputs(tmp_path, n_scientists=40, seed=5):
    taxonomy, corpus, positives = simulation.simulate(
        n_scientists=n_scientists, seed=seed
    )
    tax_path = tmp_path / "taxonomy.tsv"
    write_taxonomy_file(taxonomy, tax_path)

    vmap_path = tmp_path / "venues.tsv"
    vmap_lines = ["venue_name\tfield_id"]
    vmap_lines += [f"Journal of {fid}\t{fid}" for fid in taxonomy.field_ids]
    vmap_path.write_text("\n".join(vmap_lines) + "\n")

    rec_path = tmp_path / "records.jsonl"
    with open(rec_path, "w") as fh:
        for entity_id, field_ids, n_authors, year in corpus_rows(corpus):
            fh.write(json.dumps({
                "researcher_id": entity_id,
                "venue": f"Journal of {field_ids[0]}",
                "year": year,
                "n_authors": n_authors,
                "institution": f"Inst{zlib.crc32(entity_id.encode()) % 3}",
            }) + "\n")
    return tax_path, vmap_path, rec_path, positives


def extended_corpus(pipeline, path, extra_rows):
    """Save the pipeline's corpus with extra_rows appended to path."""
    base = load_corpus(pipeline["corpus"])
    save_corpus(make_corpus(corpus_rows(base) + extra_rows, base.kind, base.match_stats),
                path)
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run ingest + freq/emb fits once; commands under test reuse the artifacts."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    tax_path, vmap_path, rec_path, _ = write_pipeline_inputs(tmp_path)
    runner = CliRunner()
    res = runner.invoke(main, [
        "ingest", "--records", str(rec_path), "--venue-map", str(vmap_path),
        "--taxonomy", str(tax_path), "--kind", "scientist",
        "--out", str(tmp_path / "corpus"),
    ])
    assert res.exit_code == 0, res.output
    corpus_art = tmp_path / "corpus" / "corpus.jsonl"
    for model, out in (("freq", "phi_freq"), ("emb", "phi_emb")):
        res = runner.invoke(main, [
            "fit", "--corpus", str(corpus_art), "--taxonomy", str(tax_path),
            "--window", "2000:2004", "--theta", "0.05", "--model", model,
            "--dim", "16", "--seed", "7", "--out", str(tmp_path / out),
        ])
        assert res.exit_code == 0, res.output
    return {
        "tmp": tmp_path,
        "taxonomy": tax_path,
        "venues": vmap_path,
        "records": rec_path,
        "corpus": corpus_art,
        "phi_freq": tmp_path / "phi_freq" / "phi.tsv",
        "phi_emb": tmp_path / "phi_emb" / "phi.tsv",
        "runner": runner,
    }


class TestIngest:
    def test_outputs_and_full_coverage(self, pipeline):
        report = json.loads(
            (pipeline["tmp"] / "corpus" / "match_report.json").read_text()
        )
        assert report["unmatched"] == 0
        assert report["exact"] > 0
        assert report["resolved_records"] == report["exact"] + report["approximate"]

    def test_missing_taxonomy_exits_2(self, pipeline, tmp_path):
        res = pipeline["runner"].invoke(main, [
            "ingest", "--records", str(pipeline["records"]),
            "--venue-map", str(pipeline["venues"]),
            "--taxonomy", str(tmp_path / "nope.tsv"),
            "--out", str(tmp_path / "out"),
        ])
        assert res.exit_code == 2

    def test_unmatched_venues_counted(self, pipeline, tmp_path):
        rec = tmp_path / "r.jsonl"
        rec.write_text(json.dumps({
            "researcher_id": "r1", "venue": "No Such Venue",
            "year": 2010, "n_authors": 1,
        }) + "\n")
        res = pipeline["runner"].invoke(main, [
            "ingest", "--records", str(rec),
            "--venue-map", str(pipeline["venues"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--out", str(tmp_path / "out"),
        ])
        assert res.exit_code == 0
        report = json.loads((tmp_path / "out" / "match_report.json").read_text())
        assert report["unmatched"] == 1

    def _ingest(self, pipeline, tmp_path, lines, kind="scientist"):
        rec = tmp_path / "r.jsonl"
        rec.write_text("".join(line + "\n" for line in lines))
        return pipeline["runner"].invoke(main, [
            "ingest", "--records", str(rec),
            "--venue-map", str(pipeline["venues"]),
            "--taxonomy", str(pipeline["taxonomy"]), "--kind", kind,
            "--out", str(tmp_path / "out"),
        ])

    def test_non_object_lines_are_invalid_rows(self, pipeline, tmp_path):
        valid = json.dumps({"researcher_id": "r1", "venue": "Journal of F001",
                            "year": 2001, "n_authors": 1})
        res = self._ingest(pipeline, tmp_path, ["[1, 2]", '"x"', valid, "5"])
        assert res.exit_code == 0, res.output
        assert "Traceback" not in res.output
        for line_no, name in ((1, "list"), (2, "str"), (4, "int")):
            assert (f"warning: line {line_no}: record must be a JSON object, "
                    f"got {name}") in res.output
        report = json.loads((tmp_path / "out" / "match_report.json").read_text())
        assert (report["invalid_rows"], report["resolved_records"]) == (3, 1)

    def test_ids_must_be_strings_or_integers(self, pipeline, tmp_path):
        def row(**ids):
            return json.dumps({"researcher_id": "r1", "venue": "Journal of F001",
                               "year": 2001, "n_authors": 1, **ids})

        res = self._ingest(pipeline, tmp_path, [
            row(institution=5), row(institution="UFMG"),
            row(researcher_id=["r3"]), row(institution=True),
            row(institution=1.0), row(state={"uf": "MG"}), row(venue=[7]),
        ], kind="institution")
        assert res.exit_code == 0, res.output
        for line_no in (3, 4, 5, 6, 7):
            assert f"warning: line {line_no}: " in res.output
        assert "researcher_id must be a string or an integer, got ['r3']" in res.output
        report = json.loads((tmp_path / "out" / "match_report.json").read_text())
        assert (report["invalid_rows"], report["resolved_records"]) == (5, 2)
        corpus = tmp_path / "out" / "corpus.jsonl"
        assert load_corpus(corpus).entity_ids == ["5", "UFMG"]
        res = pipeline["runner"].invoke(main, [
            "export-stats", "--corpus", str(corpus),
            "--taxonomy", str(pipeline["taxonomy"]), "--out", str(tmp_path / "stats"),
        ])
        assert res.exit_code == 0, res.output


class TestFit:
    def test_freq_artifact_loads(self, pipeline):
        phi = load_proximity(pipeline["phi_freq"])
        assert phi.model_tag == "frequentist"
        assert str(phi.window) == "2000:2004"

    def test_emb_deterministic_artifacts(self, pipeline, tmp_path):
        args = [
            "fit", "--corpus", str(pipeline["corpus"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--window", "2000:2004", "--model", "emb", "--dim", "16",
            "--seed", "7",
        ]
        r1 = pipeline["runner"].invoke(main, args + ["--out", str(tmp_path / "a")])
        r2 = pipeline["runner"].invoke(main, args + ["--out", str(tmp_path / "b")])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert (tmp_path / "a" / "phi.tsv").read_bytes() == \
               (tmp_path / "b" / "phi.tsv").read_bytes()
        assert (tmp_path / "a" / "embeddings.tsv").read_bytes() == \
               (tmp_path / "b" / "embeddings.tsv").read_bytes()
        assert load_proximity(tmp_path / "a" / "phi.tsv").model_tag == "embedding"

    def test_emb_manifest_names_the_batch_size(self, pipeline):
        manifest = json.loads((pipeline["tmp"] / "phi_emb" / "manifest.json").read_text())
        config = emb_model.EmbeddingConfig(dim=16, seed=7)
        assert manifest["embedding_config"]["bags_per_batch"] == \
               emb_model.bags_per_batch(config)

    def test_negative_theta_exits_2(self, pipeline, tmp_path):
        for theta in ("-1", "nan", "inf"):
            res = pipeline["runner"].invoke(main, [
                "fit", "--corpus", str(pipeline["corpus"]),
                "--taxonomy", str(pipeline["taxonomy"]),
                "--window", "2000:2004", "--model", "freq", "--theta", theta,
                "--out", str(tmp_path / "out"),
            ])
            assert res.exit_code == 2, theta

    @pytest.mark.parametrize("corruption", sorted(PHI_CORRUPTIONS))
    def test_corrupt_phi_artifact_rejected(self, pipeline, tmp_path, corruption):
        corrupt, error_line = PHI_CORRUPTIONS[corruption]
        lines = pipeline["phi_freq"].read_text().splitlines()
        line = error_line(len(lines))
        bad = tmp_path / "phi.tsv"
        bad.write_text("\n".join(corrupt(lines)) + "\n")
        with pytest.raises(ParseError) as err:
            load_proximity(bad)
        assert (err.value.path, err.value.line) == (bad, line)
        res = pipeline["runner"].invoke(main, [
            "predict", "--phi", str(bad), "--corpus", str(pipeline["corpus"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--rca-window", "2002:2004", "--transition", "0A",
        ])
        assert res.exit_code == 1
        assert f"{bad}:{line}" in res.output


class TestPredict:
    def test_top_k_table(self, pipeline, tmp_path):
        out = tmp_path / "pred.tsv"
        res = pipeline["runner"].invoke(main, [
            "predict", "--phi", str(pipeline["phi_freq"]),
            "--corpus", str(pipeline["corpus"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--rca-window", "2002:2004", "--transition", "0A",
            "--top", "5", "--entity", "S0000", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("entity_id\trank")
        assert 1 <= len(lines) - 1 <= 5
        ranks = [int(l.split("\t")[1]) for l in lines[1:]]
        assert ranks == list(range(1, len(ranks) + 1))

    def test_unknown_entity_warns_and_skips(self, pipeline, tmp_path):
        res = pipeline["runner"].invoke(main, [
            "predict", "--phi", str(pipeline["phi_freq"]),
            "--corpus", str(pipeline["corpus"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--rca-window", "2002:2004", "--transition", "0A",
            "--entity", "NOBODY", "--out", str(tmp_path / "pred.tsv"),
        ])
        assert res.exit_code == 0
        assert "not found" in res.output

    def test_entity_without_records_in_window_warns_why(self, pipeline, tmp_path):
        # OLD1 is in the corpus, with its only record before the RCA window
        corpus = extended_corpus(pipeline, tmp_path / "extended.jsonl",
                                 [("OLD1", ("F001",), 1, 2000)])
        out = tmp_path / "pred.tsv"
        res = pipeline["runner"].invoke(main, [
            "predict", "--phi", str(pipeline["phi_freq"]), "--corpus", str(corpus),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--rca-window", "2002:2004", "--transition", "0A",
            "--entity", "OLD1", "--entity", "NOBODY", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        assert res.stdout == ""
        assert res.stderr.splitlines() == [
            "warning: entity 'OLD1' has no record in window 2002:2004, skipped",
            "warning: entity 'NOBODY' not found, skipped",
        ]
        assert out.read_text() == "entity_id\trank\tfield_id\tfield_name\tdensity\n"

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_exits_2(self, pipeline, tmp_path, top):
        out = tmp_path / "pred.tsv"
        res = pipeline["runner"].invoke(main, [
            "predict", "--phi", str(pipeline["phi_freq"]),
            "--corpus", str(pipeline["corpus"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--rca-window", "2002:2004", "--transition", "0A",
            "--top", top, "--out", str(out),
        ])
        assert res.exit_code == 2, res.output
        assert "Traceback" not in res.output
        assert "--top" in res.output
        assert not out.exists()

    def test_rca_window_without_records_exits_2(self, pipeline, tmp_path):
        out = tmp_path / "pred.tsv"
        res = pipeline["runner"].invoke(main, [
            "predict", "--phi", str(pipeline["phi_freq"]),
            "--corpus", str(pipeline["corpus"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--rca-window", "1990:1991", "--transition", "0A", "--out", str(out),
        ])
        assert res.exit_code == 2, res.output
        assert ("config error: no record of the corpus falls in window 1990:1991"
                in res.output)
        assert not out.exists()


class TestEvaluate:
    def test_two_model_run_emits_p_value(self, pipeline, tmp_path):
        res = pipeline["runner"].invoke(main, [
            "evaluate", "--phi-a", str(pipeline["phi_freq"]),
            "--phi-b", str(pipeline["phi_emb"]),
            "--corpus", str(pipeline["corpus"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--fit", "2000:2004", "--rca", "2002:2004", "--test", "2005:2007",
            "--transition", "0A", "--permutations", "200",
            "--out", str(tmp_path / "eval"),
        ])
        assert res.exit_code == 0, res.output
        summary = json.loads((tmp_path / "eval" / "summary.json").read_text())
        assert summary["test"] == "paired sign-flip"
        n = 200 + 1
        assert summary["p_value"] * n == pytest.approx(round(summary["p_value"] * n))
        assert summary["frequentist"]["n"] > 0
        report = (tmp_path / "eval" / "auroc.tsv").read_text().splitlines()
        assert report[0] == "entity_id\tkind\ttransition\tmodel\tauroc\tn_pos\tn_neg"
        # both models score the same entities on the same candidates
        counts = {"frequentist": {}, "embedding": {}}
        for line in report[1:]:
            eid, _, _, model, _, n_pos, n_neg = line.split("\t")
            counts[model][eid] = (n_pos, n_neg)
        assert counts["frequentist"] == counts["embedding"]
        for key in ("n", "excluded"):
            assert summary["frequentist"][key] == summary["embedding"][key]

    def test_masks_are_built_once_per_run(self, pipeline, tmp_path, monkeypatch):
        calls = {"candidate_mask": 0, "realized_mask": 0}

        def counted(name):
            fn = getattr(pe, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(pe, name, counted(name))
        per_run = []
        for phis in (["--phi-a", str(pipeline["phi_freq"])],
                     ["--phi-a", str(pipeline["phi_freq"]),
                      "--phi-b", str(pipeline["phi_emb"])]):
            before = dict(calls)
            res = pipeline["runner"].invoke(main, [
                "evaluate", *phis, "--corpus", str(pipeline["corpus"]),
                "--taxonomy", str(pipeline["taxonomy"]),
                "--fit", "2000:2004", "--rca", "2002:2004", "--test", "2005:2007",
                "--transition", "0A", "--permutations", "200",
                "--out", str(tmp_path / f"eval{len(phis)}"),
            ])
            assert res.exit_code == 0, res.output
            per_run.append({k: calls[k] - before[k] for k in calls})
        assert per_run[0] == per_run[1] == {"candidate_mask": 1, "realized_mask": 1}

    def test_two_model_run_without_scores_gives_null_p_value(self, pipeline,
                                                             tmp_path):
        # no entity of the 40 in this corpus is scored for ND on the full U=0 set
        out = tmp_path / "eval"
        res = pipeline["runner"].invoke(main, [
            "evaluate", "--phi-a", str(pipeline["phi_freq"]),
            "--phi-b", str(pipeline["phi_emb"]),
            "--corpus", str(pipeline["corpus"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--fit", "2000:2004", "--rca", "2002:2004", "--test", "2005:2007",
            "--transition", "ND", "--full-candidates", "--permutations", "200",
            "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["p_value"] is None
        for tag in ("frequentist", "embedding"):
            assert summary[tag] == {"n": 0, "excluded": 40}

    def test_overlapping_test_window_rejected(self, pipeline, tmp_path):
        res = pipeline["runner"].invoke(main, [
            "evaluate", "--phi-a", str(pipeline["phi_freq"]),
            "--corpus", str(pipeline["corpus"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--fit", "2000:2006", "--rca", "2002:2006", "--test", "2005:2007",
            "--transition", "0A", "--out", str(tmp_path / "eval"),
        ])
        assert res.exit_code == 2

    def test_two_phi_of_one_model_rejected(self, pipeline, tmp_path):
        other = tmp_path / "other_phi.tsv"
        shutil.copy(pipeline["phi_freq"], other)
        out = tmp_path / "eval"
        res = pipeline["runner"].invoke(main, [
            "evaluate", "--phi-a", str(pipeline["phi_freq"]), "--phi-b", str(other),
            "--corpus", str(pipeline["corpus"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--fit", "2000:2004", "--rca", "2002:2004", "--test", "2005:2007",
            "--transition", "0A", "--permutations", "200", "--out", str(out),
        ])
        assert res.exit_code == 2
        assert str(pipeline["phi_freq"]) in res.output and str(other) in res.output
        assert not out.exists()

    def test_test_window_only_entities_counted(self, pipeline, tmp_path):
        extended = extended_corpus(pipeline, tmp_path / "extended.jsonl",
                                   [(eid, ("F001",), 1, 2006) for eid in ("NEW1", "NEW2")])
        summaries = []
        for corpus in (pipeline["corpus"], extended):
            out = tmp_path / corpus.stem
            res = pipeline["runner"].invoke(main, [
                "evaluate", "--phi-a", str(pipeline["phi_freq"]),
                "--corpus", str(corpus), "--taxonomy", str(pipeline["taxonomy"]),
                "--fit", "2000:2004", "--rca", "2002:2004", "--test", "2005:2007",
                "--transition", "0A", "--out", str(out),
            ])
            assert res.exit_code == 0, res.output
            summaries.append(json.loads((out / "summary.json").read_text()))
        base, with_new = summaries
        assert base["test_window_only"] == 0
        assert with_new["test_window_only"] == 2
        # they are neither scored nor excluded
        assert with_new["frequentist"] == base["frequentist"]

    def test_entities_before_rca_window_are_left_out(self, pipeline, tmp_path):
        # OLD1's only record precedes the RCA window: it has no RCA to rank
        # from and no test-window record, so every output stays as it was
        extended = extended_corpus(pipeline, tmp_path / "extended.jsonl",
                                   [("OLD1", ("F001",), 1, 2000)])
        outputs = []
        for corpus in (pipeline["corpus"], extended):
            out = tmp_path / corpus.stem
            for argv in (["evaluate", "--phi-a", str(pipeline["phi_freq"]),
                          "--fit", "2000:2004", "--rca", "2002:2004",
                          "--test", "2005:2007", "--out", str(out)],
                         ["predict", "--phi", str(pipeline["phi_freq"]),
                          "--rca-window", "2002:2004", "--out", str(out / "pred.tsv")]):
                res = pipeline["runner"].invoke(main, [
                    *argv, "--corpus", str(corpus),
                    "--taxonomy", str(pipeline["taxonomy"]), "--transition", "0A"])
                assert res.exit_code == 0, res.output
            outputs.append([(out / name).read_text()
                            for name in ("auroc.tsv", "summary.json", "pred.tsv")])
        base, with_old = outputs
        assert with_old == base
        summary = json.loads(with_old[1])
        assert (summary["test_window_only"], summary["frequentist"]["excluded"]) == (0, 0)
        assert "OLD1" not in with_old[0] + with_old[2]

    def test_test_window_without_records_exits_2(self, pipeline, tmp_path):
        # the corpus up to the fit window's end: nothing falls in the test window
        truncated = tmp_path / "truncated.jsonl"
        base = load_corpus(pipeline["corpus"])
        save_corpus(make_corpus([r for r in corpus_rows(base) if r[3] <= 2004],
                                base.kind, base.match_stats), truncated)
        out = tmp_path / "eval"
        res = pipeline["runner"].invoke(main, [
            "evaluate", "--phi-a", str(pipeline["phi_freq"]),
            "--corpus", str(truncated), "--taxonomy", str(pipeline["taxonomy"]),
            "--fit", "2000:2004", "--rca", "2002:2004", "--test", "2005:2007",
            "--transition", "0A", "--out", str(out),
        ])
        assert res.exit_code == 2, res.output
        assert ("config error: no record of the corpus falls in window 2005:2007"
                in res.output)
        assert not out.exists()

    def test_window_mismatch_with_artifact_rejected(self, pipeline, tmp_path):
        res = pipeline["runner"].invoke(main, [
            "evaluate", "--phi-a", str(pipeline["phi_freq"]),
            "--corpus", str(pipeline["corpus"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--fit", "2001:2004", "--rca", "2002:2004", "--test", "2005:2007",
            "--transition", "0A", "--out", str(tmp_path / "eval"),
        ])
        assert res.exit_code == 2


class TestBackbone:
    def test_disparity_on_embedding_phi(self, pipeline, tmp_path):
        res = pipeline["runner"].invoke(main, [
            "backbone", "--phi", str(pipeline["phi_emb"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--mode", "disparity", "--alpha", "0.2",
            "--level", "intermediate", "--out", str(tmp_path / "bb"),
        ])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "bb" / "backbone.tsv").exists()
        assert (tmp_path / "bb" / "communities.tsv").exists()

    def test_disparity_on_freq_phi_rejected(self, pipeline, tmp_path):
        res = pipeline["runner"].invoke(main, [
            "backbone", "--phi", str(pipeline["phi_freq"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--mode", "disparity", "--out", str(tmp_path / "bb"),
        ])
        assert res.exit_code == 2

    def test_mst_threshold_dot_export(self, pipeline, tmp_path):
        res = pipeline["runner"].invoke(main, [
            "backbone", "--phi", str(pipeline["phi_emb"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--mode", "mst-threshold", "--p", "0.35",
            "--level", "field", "--format", "dot",
            "--out", str(tmp_path / "bb"),
        ])
        assert res.exit_code == 0, res.output
        dot = (tmp_path / "bb" / "backbone.dot").read_text()
        assert dot.startswith("graph")

    def test_asymmetric_embedding_phi_exits_1(self, pipeline, tmp_path):
        lines = pipeline["phi_emb"].read_text().splitlines()
        cells = lines[7].split("\t")  # phi[F003][F001]
        lines[7] = "\t".join([cells[0], "0.99", *cells[2:]])
        bad = tmp_path / "phi.tsv"
        bad.write_text("\n".join(lines) + "\n")
        res = pipeline["runner"].invoke(main, [
            "backbone", "--phi", str(bad), "--taxonomy", str(pipeline["taxonomy"]),
            "--level", "intermediate", "--out", str(tmp_path / "bb"),
        ])
        assert res.exit_code == 1, res.output
        assert f"embedding row 'F001' differs from its column ({bad}:6)" in res.output
        assert not (tmp_path / "bb").exists()

    def test_every_format_writes_one_backbone(self, pipeline, tmp_path):
        def run(fmt):
            out = tmp_path / fmt
            res = pipeline["runner"].invoke(main, [
                "backbone", "--phi", str(pipeline["phi_emb"]),
                "--taxonomy", str(pipeline["taxonomy"]), "--mode", "mst-threshold",
                "--level", "field", "--format", fmt, "--out", str(out),
            ])
            assert res.exit_code == 0, res.output
            return out

        tsv, graphml, dot = run("edgelist"), run("xmlgraph"), run("dot")
        edges = {}  # (u, v) -> (weight as the edge list prints it, group)
        for line in (tsv / "backbone.tsv").read_text().splitlines():
            u, v, w, group = line.split("\t")
            edges[u, v] = (w, group)
        g = nx.read_graphml(graphml / "backbone.graphml")
        assert {tuple(sorted(e)): (f"{d['weight']:.10g}", d["group"])
                for *e, d in g.edges(data=True)} == edges
        assert {d["group"] for _, _, d in g.edges(data=True)} == {"intra", "inter"}
        dot_edges = {}
        for line in (dot / "backbone.dot").read_text().splitlines():
            if " -- " in line:
                u, v, w, color = re.fullmatch(
                    r'  "(.+)" -- "(.+)" \[weight=(.+), color=(red|black)\];', line
                ).groups()
                dot_edges[u, v] = (w, "inter" if color == "red" else "intra")
        assert dot_edges == {e: (f"{g.edges[e]['weight']:.6g}", group)
                             for e, (_, group) in edges.items()}
        communities = {(out / "communities.tsv").read_bytes()
                       for out in (tsv, graphml, dot)}
        assert len(communities) == 1

    @pytest.mark.parametrize("level", ["field", "intermediate"])
    def test_phi_fields_missing_from_taxonomy_exit_2(self, pipeline, tmp_path, level):
        header, _, *rows = pipeline["taxonomy"].read_text().splitlines()
        taxonomy = tmp_path / "taxonomy.tsv"
        taxonomy.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "bb"
        res = pipeline["runner"].invoke(main, [
            "backbone", "--phi", str(pipeline["phi_emb"]),
            "--taxonomy", str(taxonomy), "--level", level, "--out", str(out),
        ])
        assert res.exit_code == 2, res.output
        assert "Traceback" not in res.output
        assert "proximity artifact and taxonomy field sets differ" in res.output
        assert not out.exists()


class TestExportStats:
    def test_ccdf_tables(self, pipeline, tmp_path):
        res = pipeline["runner"].invoke(main, [
            "export-stats", "--corpus", str(pipeline["corpus"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--out", str(tmp_path / "stats"),
        ])
        assert res.exit_code == 0, res.output
        for name in ("ccdf_publications.tsv", "ccdf_active_fields.tsv"):
            lines = (tmp_path / "stats" / name).read_text().strip().splitlines()
            assert lines[0] == "value\tccdf"
            assert len(lines) > 1

    def test_window_without_records_exits_2(self, pipeline, tmp_path):
        res = pipeline["runner"].invoke(main, [
            "export-stats", "--corpus", str(pipeline["corpus"]),
            "--taxonomy", str(pipeline["taxonomy"]), "--window", "1990:1991",
            "--out", str(tmp_path / "stats"),
        ])
        assert res.exit_code == 2, res.output
        assert "config error:" in res.output and "1990:1991" in res.output
        assert not (tmp_path / "stats").exists()

    @pytest.mark.parametrize("corruption", sorted(CORPUS_HEADER_CORRUPTIONS))
    def test_corrupt_corpus_header_exits_1(self, pipeline, tmp_path, corruption):
        header, records = pipeline["corpus"].read_text().split("\n", 1)
        bad = tmp_path / "corpus.jsonl"
        header = CORPUS_HEADER_CORRUPTIONS[corruption](json.loads(header))
        bad.write_text(json.dumps(header) + "\n" + records)
        res = pipeline["runner"].invoke(main, [
            "export-stats", "--corpus", str(bad),
            "--taxonomy", str(pipeline["taxonomy"]), "--out", str(tmp_path / "stats"),
        ])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert f"({bad}:1)" in res.output

    @pytest.mark.parametrize("corruption", sorted(CORPUS_COLUMN_CORRUPTIONS))
    def test_corrupt_corpus_record_exits_1(self, pipeline, tmp_path, corruption):
        line_no, corrupt = CORPUS_COLUMN_CORRUPTIONS[corruption]
        lines = pipeline["corpus"].read_text().splitlines()
        changed = corrupt(json.loads(lines[line_no - 1]))
        lines[line_no - 1:line_no] = [] if changed is None else [json.dumps(changed)]
        bad = tmp_path / "corpus.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        res = pipeline["runner"].invoke(main, [
            "export-stats", "--corpus", str(bad),
            "--taxonomy", str(pipeline["taxonomy"]), "--out", str(tmp_path / "stats"),
        ])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert f"({bad}:{line_no})" in res.output


@pytest.mark.parametrize("command,option,value", [
    ("fit", "--window", "abc"),
    ("fit", "--window", "2004:2000"),
    ("predict", "--rca-window", "2002-2004"),
    ("evaluate", "--fit", "2000:2004:2006"),
    ("evaluate", "--rca", "2004:2002"),
    ("evaluate", "--test", "x:y"),
])
def test_bad_window_exits_2_without_traceback(pipeline, tmp_path, command, option,
                                              value):
    files = ["--corpus", str(pipeline["corpus"]),
             "--taxonomy", str(pipeline["taxonomy"])]
    phi = str(pipeline["phi_freq"])
    args = {
        "fit": [*files, "--window", "2000:2004", "--model", "freq",
                "--out", str(tmp_path / "out")],
        "predict": ["--phi", phi, *files, "--rca-window", "2002:2004",
                    "--transition", "0A"],
        "evaluate": ["--phi-a", phi, *files, "--fit", "2000:2004", "--rca", "2002:2004",
                     "--test", "2005:2007", "--transition", "0A",
                     "--out", str(tmp_path / "eval")],
    }[command]
    args[args.index(option) + 1] = value
    res = pipeline["runner"].invoke(main, [command, *args])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert "START:END" in res.output or "after end" in res.output


@pytest.mark.parametrize("command,option,value", [
    ("fit", "--negatives", "-3"),
    ("evaluate", "--permutations", "50"),
    ("ingest", "--format", "nope"),
    ("fit", "--seed", "-1"),
    ("evaluate", "--seed", "-1"),
])
def test_bad_option_exits_2_before_any_io(pipeline, tmp_path, command, option, value):
    # an unreadable corpus or taxonomy would exit 1 if it were loaded before
    # the check
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("not json\n")
    taxonomy = tmp_path / "taxonomy.tsv"
    taxonomy.write_text("not a taxonomy\n")
    files = ["--corpus", str(corpus), "--taxonomy", str(pipeline["taxonomy"])]
    out = tmp_path / "out"
    args = {
        "ingest": ["--records", str(pipeline["records"]),
                   "--venue-map", str(pipeline["venues"]),
                   "--taxonomy", str(taxonomy)],
        "fit": [*files, "--window", "2000:2004", "--model", "emb"],
        "evaluate": ["--phi-a", str(pipeline["phi_freq"]),
                     "--phi-b", str(pipeline["phi_emb"]), *files,
                     "--fit", "2000:2004", "--rca", "2002:2004", "--test", "2005:2007",
                     "--transition", "0A"],
    }[command]
    res = pipeline["runner"].invoke(main, [command, *args, option, value,
                                           "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    assert not out.exists()


@pytest.mark.parametrize("bad", ["directory", "not_utf8"])
@pytest.mark.parametrize("command,option", [
    ("ingest", "--records"), ("ingest", "--venue-map"), ("ingest", "--taxonomy"),
    ("fit", "--corpus"), ("predict", "--phi"),
])
def test_bad_input_path_exits_without_traceback(pipeline, tmp_path, command, option,
                                                bad):
    path = tmp_path / "input"
    if bad == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe")
    out = tmp_path / "out"
    corpus = ["--corpus", str(pipeline["corpus"]),
              "--taxonomy", str(pipeline["taxonomy"])]
    args = {
        "ingest": ["--records", str(pipeline["records"]),
                   "--venue-map", str(pipeline["venues"]),
                   "--taxonomy", str(pipeline["taxonomy"]), "--out", str(out)],
        "fit": [*corpus, "--window", "2000:2004", "--model", "freq",
                "--out", str(out)],
        "predict": ["--phi", str(pipeline["phi_freq"]), *corpus,
                    "--rca-window", "2002:2004", "--transition", "0A",
                    "--out", str(out)],
    }[command]
    args[args.index(option) + 1] = str(path)
    res = pipeline["runner"].invoke(main, [command, *args])
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    if bad == "directory":
        assert res.exit_code == 2, res.output
        assert "config error:" in res.output
    else:
        assert res.exit_code == 1, res.output
        assert "not UTF-8 text" in res.output and f"({path})" in res.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "fit", "evaluate", "backbone",
                                     "export-stats"])
def test_out_naming_a_file_exits_2_without_traceback(pipeline, tmp_path, command):
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    corpus = ["--corpus", str(pipeline["corpus"]),
              "--taxonomy", str(pipeline["taxonomy"])]
    args = {
        "ingest": ["--records", str(pipeline["records"]),
                   "--venue-map", str(pipeline["venues"]),
                   "--taxonomy", str(pipeline["taxonomy"])],
        "fit": [*corpus, "--window", "2000:2004", "--model", "freq"],
        "evaluate": ["--phi-a", str(pipeline["phi_freq"]), *corpus,
                     "--fit", "2000:2004", "--rca", "2002:2004", "--test", "2005:2007",
                     "--transition", "0A"],
        "backbone": ["--phi", str(pipeline["phi_emb"]),
                     "--taxonomy", str(pipeline["taxonomy"])],
        "export-stats": corpus,
    }[command]
    res = pipeline["runner"].invoke(main, [command, *args, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "config error:" in res.output
    assert "Traceback" not in res.output
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("site", ["records_line", "corpus_header", "corpus_columns"])
def test_json_integer_over_digit_limit_exits_1(pipeline, tmp_path, site):
    # json.loads raises a plain ValueError, not JSONDecodeError, on an
    # integer longer than the 4,300 digits Python converts by default
    huge = "9" * 5000
    bad = tmp_path / "input.jsonl"
    if site == "records_line":
        lines = pipeline["records"].read_text().splitlines()
        lines[1] = lines[1][:-1] + f', "year": {huge}}}'
        line_no = 2
        args = ["ingest", "--records", str(bad), "--venue-map", str(pipeline["venues"]),
                "--taxonomy", str(pipeline["taxonomy"]), "--out", str(tmp_path / "out")]
    else:
        lines = pipeline["corpus"].read_text().splitlines()
        line_no = 1 if site == "corpus_header" else 4
        lines[line_no - 1] = lines[line_no - 1][:-1] + f', "big": {huge}}}'
        args = ["export-stats", "--corpus", str(bad),
                "--taxonomy", str(pipeline["taxonomy"]), "--out", str(tmp_path / "out")]
    bad.write_text("\n".join(lines) + "\n")
    res = pipeline["runner"].invoke(main, args)
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert f"({bad}:{line_no})" in res.output


@pytest.mark.parametrize("site", ["records_line", "corpus_header", "corpus_columns"])
def test_json_nested_too_deep_exits_1(pipeline, tmp_path, site):
    # the decoders raise RecursionError, neither JSONDecodeError nor ValueError
    deep = "[" * 100_000 + "]" * 100_000
    bad = tmp_path / "input.jsonl"
    if site == "records_line":
        lines = pipeline["records"].read_text().splitlines()
        line_no = 2
        args = ["ingest", "--records", str(bad), "--venue-map", str(pipeline["venues"]),
                "--taxonomy", str(pipeline["taxonomy"])]
    else:
        lines = pipeline["corpus"].read_text().splitlines()
        line_no = 1 if site == "corpus_header" else 4
        args = ["export-stats", "--corpus", str(bad),
                "--taxonomy", str(pipeline["taxonomy"])]
    lines[line_no - 1] = lines[line_no - 1][:-1] + f', "deep": {deep}}}'
    bad.write_text("\n".join(lines) + "\n")
    res = pipeline["runner"].invoke(main, [*args, "--out", str(tmp_path / "out")])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"error: invalid JSON: nesting too deep ({bad}:{line_no})" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("table", ["taxonomy", "venues"])
def test_truncated_table_row_exits_1(pipeline, tmp_path, table):
    # a taxonomy row without intermediate and macro cells once crashed
    # backbone; a venue row without a field id read as an unknown field None
    lines = pipeline[table].read_text().splitlines()
    lines[2] = "\t".join(lines[2].split("\t")[:2 if table == "taxonomy" else 1])
    bad = tmp_path / f"{table}.tsv"
    bad.write_text("\n".join(lines) + "\n")
    if table == "taxonomy":
        args = ["backbone", "--phi", str(pipeline["phi_emb"]), "--taxonomy", str(bad)]
    else:
        args = ["ingest", "--records", str(pipeline["records"]), "--venue-map", str(bad),
                "--taxonomy", str(pipeline["taxonomy"])]
    res = pipeline["runner"].invoke(main, [*args, "--out", str(tmp_path / "out")])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"error: row has fewer cells than the header ({bad}:3)" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("column", [0, 1, 2, 3])
@pytest.mark.parametrize("char", ["\x01", "\x1f", "\ufffe", "\uffff"])
def test_taxonomy_text_xml_forbids_exits_1(pipeline, tmp_path, column, char):
    # a field name holding \x01 once passed every command, and the GraphML
    # that backbone wrote could not be read back
    lines = pipeline["taxonomy"].read_text().splitlines()
    cells = lines[2].split("\t")
    cells[column] += char
    lines[2] = "\t".join(cells)
    bad = tmp_path / "taxonomy.tsv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    res = pipeline["runner"].invoke(main, [
        "backbone", "--phi", str(pipeline["phi_emb"]), "--taxonomy", str(bad),
        "--format", "xmlgraph", "--out", str(tmp_path / "out")])
    assert res.exit_code == 1, res.output
    assert (f"error: taxonomy text holds {char!r}, which XML 1.0 forbids ({bad}:3)"
            in res.output)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("column", [0, 1, 2, 3])
@pytest.mark.parametrize("char", ["\t", "\n", "\r"])
def test_taxonomy_text_breaking_tsv_rows_exits_1(pipeline, tmp_path, column, char):
    # a quoted field name "Field<TAB>1" once passed ingest and fit, and
    # predict wrote its rows with 6 cells under a 5-column header
    lines = pipeline["taxonomy"].read_text().splitlines()
    cells = lines[2].split("\t")
    cells[column] = f'"{cells[column]}{char}1"'
    lines[2] = "\t".join(cells)
    bad = tmp_path / "taxonomy.tsv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    res = pipeline["runner"].invoke(main, [
        "ingest", "--records", str(pipeline["records"]), "--venue-map",
        str(pipeline["venues"]), "--taxonomy", str(bad), "--out", str(tmp_path / "out")])
    assert res.exit_code == 1, res.output
    # the line a row ends on, as for every taxonomy row error
    line = 3 if char == "\t" else 4
    assert (f"error: taxonomy text holds {char!r}, which a TSV cell cannot hold "
            f"({bad}:{line})" in res.output)
    assert not (tmp_path / "out").exists()


def test_verbose_logs_epoch_losses_to_stderr_only(pipeline, tmp_path):
    out = tmp_path / "out"
    args = ["fit", "--corpus", str(pipeline["corpus"]),
            "--taxonomy", str(pipeline["taxonomy"]), "--window", "2000:2004",
            "--model", "emb", "--dim", "16", "--epochs", "3", "--seed", "7",
            "--out", str(out)]
    logger = logging.getLogger("research_space")
    try:
        quiet = pipeline["runner"].invoke(main, args)
        phi = (out / "phi.tsv").read_bytes()
        loud = pipeline["runner"].invoke(main, ["-v", *args])
    finally:
        logger.handlers = []
        logger.setLevel(logging.NOTSET)
    assert quiet.exit_code == loud.exit_code == 0, loud.output
    assert loud.stdout_bytes == quiet.stdout_bytes
    assert (out / "phi.tsv").read_bytes() == phi
    assert quiet.stderr == ""
    losses = [line for line in loud.stderr.splitlines() if "mean hinge loss" in line]
    assert [line.split(": ")[0] for line in losses] == ["epoch 1/3", "epoch 2/3",
                                                        "epoch 3/3"]


@pytest.mark.parametrize("model", ["freq", "emb"])
def test_fit_on_window_without_presence_exits_1(pipeline, tmp_path, model):
    out = tmp_path / "out"
    res = pipeline["runner"].invoke(main, [
        "fit", "--corpus", str(pipeline["corpus"]),
        "--taxonomy", str(pipeline["taxonomy"]), "--window", "1990:1991",
        "--model", model, "--out", str(out),
    ])
    assert res.exit_code == 1, res.output
    assert "window 1990:1991" in res.output
    assert not out.exists()


def _src_env(tests=False, **variables):
    """The environment of a subprocess that imports this checkout's package
    (and, with ``tests``, the test helpers), plus ``variables``."""
    src = str(Path(research_space.__file__).resolve().parents[1])
    paths = (src, str(Path(__file__).parent) if tests else None,
             os.environ.get("PYTHONPATH"))
    return {**os.environ, **variables,
            "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def test_cli_import_loads_neither_scipy_stats_nor_networkx():
    env = _src_env()
    code = ("import sys, research_space.cli; "
            "print([m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'networkx')])")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
    res = subprocess.run([sys.executable, "-m", "research_space.cli", "backbone",
                          "--help"], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert "--mode" in res.stdout


# Runs one CLI command in-process and reports on stderr whether scipy was
# loaded by the time it exited.
SCIPY_PROBE = """import sys
from research_space.cli import main
try:
    main(sys.argv[1:])
finally:
    print("scipy loaded:", "scipy" in sys.modules, file=sys.stderr)
"""


def test_no_command_loads_scipy(pipeline, tmp_path):
    taxonomy, corpus = str(pipeline["taxonomy"]), str(pipeline["corpus"])
    phi_freq, phi_emb = str(pipeline["phi_freq"]), str(pipeline["phi_emb"])
    fit = ["fit", "--corpus", corpus, "--taxonomy", taxonomy, "--window", "2000:2004"]
    evaluate = ["evaluate", "--phi-a", phi_freq, "--corpus", corpus,
                "--taxonomy", taxonomy, "--fit", "2000:2004", "--rca", "2002:2004",
                "--test", "2005:2007", "--transition", "0A", "--permutations", "100"]
    commands = {
        "ingest": ["ingest", "--records", str(pipeline["records"]),
                   "--venue-map", str(pipeline["venues"]), "--taxonomy", taxonomy],
        "fit-freq": [*fit, "--model", "freq"],
        "fit-emb": [*fit, "--model", "emb", "--dim", "8", "--epochs", "2"],
        "predict": ["predict", "--phi", phi_freq, "--corpus", corpus,
                    "--taxonomy", taxonomy, "--rca-window", "2002:2004",
                    "--transition", "0A"],
        "evaluate-one-phi": evaluate,
        "evaluate-two-phi": [*evaluate, "--phi-b", phi_emb],
        "disparity": ["backbone", "--phi", phi_emb, "--taxonomy", taxonomy,
                      "--mode", "disparity"],
        "mst-threshold": ["backbone", "--phi", phi_emb, "--taxonomy", taxonomy,
                          "--mode", "mst-threshold", "--level", "field"],
        "export-stats": ["export-stats", "--corpus", corpus, "--taxonomy", taxonomy],
    }
    for name, args in commands.items():
        out = tmp_path / name
        if name == "predict":  # predict writes one file, the others a directory
            out = tmp_path / "predictions.tsv"
        res = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *args,
                              "--out", str(out)],
                             env=_src_env(), capture_output=True, text=True)
        assert res.returncode == 0, (name, res.stderr)
        assert res.stderr.splitlines()[-1] == "scipy loaded: False", name
        assert out.is_file() or any(out.iterdir()), name
    # the manifest hash differs (no --seed), the values do not
    np.testing.assert_array_equal(
        load_proximity(tmp_path / "fit-freq" / "phi.tsv").values,
        load_proximity(pipeline["phi_freq"]).values)


# Runs one CLI command in-process and reports on stderr whether networkx was
# loaded by the time it exited.
NETWORKX_PROBE = """import sys
from research_space.cli import main
try:
    main(sys.argv[1:])
finally:
    print("networkx loaded:", "networkx" in sys.modules, file=sys.stderr)
"""


def test_only_graphml_backbones_load_networkx(pipeline, tmp_path):
    for fmt, loaded in (("tsv", False), ("dot", False), ("xmlgraph", True)):
        res = subprocess.run([sys.executable, "-c", NETWORKX_PROBE, "backbone",
                              "--phi", str(pipeline["phi_emb"]),
                              "--taxonomy", str(pipeline["taxonomy"]),
                              "--format", fmt, "--out", str(tmp_path / fmt)],
                             env=_src_env(), capture_output=True, text=True)
        assert res.returncode == 0, (fmt, res.stderr)
        assert res.stderr.splitlines()[-1] == f"networkx loaded: {loaded}", fmt


def test_fixture_records_do_not_depend_on_hash_seed(tmp_path):
    code = ("import sys; from pathlib import Path; "
            "from test_cli import write_pipeline_inputs; "
            "write_pipeline_inputs(Path(sys.argv[1]))")
    for seed in ("1", "2"):
        (tmp_path / seed).mkdir()
        res = subprocess.run([sys.executable, "-c", code, str(tmp_path / seed)],
                             env=_src_env(tests=True, PYTHONHASHSEED=seed),
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
    first = (tmp_path / "1" / "records.jsonl").read_bytes()
    assert b'"institution": "Inst' in first
    assert first == (tmp_path / "2" / "records.jsonl").read_bytes()


def test_interrupted_summary_write_keeps_earlier_summary(pipeline, tmp_path,
                                                         monkeypatch):
    out = tmp_path / "eval"

    def evaluate(phi):
        return pipeline["runner"].invoke(main, [
            "evaluate", "--phi-a", str(pipeline[phi]),
            "--corpus", str(pipeline["corpus"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--fit", "2000:2004", "--rca", "2002:2004", "--test", "2005:2007",
            "--transition", "0A", "--out", str(out),
        ])

    assert evaluate("phi_freq").exit_code == 0
    earlier = (out / "summary.json").read_bytes()
    write_text = Path.write_text

    def write_half_then_fail(self, text, **kwargs):
        if self.name.startswith(".summary.json"):
            write_text(self, text[:len(text) // 2], **kwargs)
            raise OSError("disk full")
        return write_text(self, text, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    res = evaluate("phi_emb")
    assert isinstance(res.exception, OSError), res.output
    assert (out / "summary.json").read_bytes() == earlier
    assert sorted(p.name for p in out.iterdir()) == ["auroc.tsv", "summary.json"]
