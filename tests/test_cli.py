import json
import shutil

import pytest
from click.testing import CliRunner

import simulation
from research_space.artifacts import load_proximity
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
}

# Corruptions of the header line of a saved corpus.jsonl.
CORPUS_HEADER_CORRUPTIONS = {
    "missing_kind": lambda h: {k: v for k, v in h.items() if k != "kind"},
    "unknown_kind": lambda h: {**h, "kind": "galaxy"},
    "unknown_match_stats_key": lambda h: {
        **h, "match_stats": {**h["match_stats"], "fuzzy": 3}},
    "not_an_object": lambda h: [h],
}

# Corruptions of the first record (line 2) of a saved corpus.jsonl.
CORPUS_RECORD_CORRUPTIONS = {
    "zero_authors": lambda r: {**r, "n_authors": 0},
    "negative_authors": lambda r: {**r, "n_authors": -2},
    "boolean_authors": lambda r: {**r, "n_authors": True},
    "fractional_year": lambda r: {**r, "year": r["year"] + 0.7},
    "null_year": lambda r: {**r, "year": None},
    "empty_field_ids": lambda r: {**r, "field_ids": []},
    "field_ids_string": lambda r: {**r, "field_ids": r["field_ids"][0]},
    "numeric_entity_id": lambda r: {**r, "entity_id": 7},
    "not_an_object": lambda r: [r],
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
        for rec in corpus.records:
            fh.write(json.dumps({
                "researcher_id": rec.entity_id,
                "venue": f"Journal of {rec.field_ids[0]}",
                "year": rec.year,
                "n_authors": rec.n_authors,
                "institution": f"Inst{hash(rec.entity_id) % 3}",
            }) + "\n")
    return tax_path, vmap_path, rec_path, positives


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
        assert "p_value" in summary
        assert summary["frequentist"]["n"] > 0
        report = (tmp_path / "eval" / "auroc.tsv").read_text().splitlines()
        assert report[0] == "entity_id\tkind\ttransition\tmodel\tauroc\tn_pos\tn_neg"

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
        extended = tmp_path / "extended.jsonl"
        new_entities = [
            json.dumps({"entity_id": eid, "field_ids": ["F001"], "n_authors": 1,
                        "year": 2006}, sort_keys=True)
            for eid in ("NEW1", "NEW2")
        ]
        extended.write_text(
            pipeline["corpus"].read_text() + "\n".join(new_entities) + "\n"
        )
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

    @pytest.mark.parametrize("corruption", sorted(CORPUS_RECORD_CORRUPTIONS))
    def test_corrupt_corpus_record_exits_1(self, pipeline, tmp_path, corruption):
        header, record, rest = pipeline["corpus"].read_text().split("\n", 2)
        bad = tmp_path / "corpus.jsonl"
        record = CORPUS_RECORD_CORRUPTIONS[corruption](json.loads(record))
        bad.write_text(header + "\n" + json.dumps(record) + "\n" + rest)
        res = pipeline["runner"].invoke(main, [
            "export-stats", "--corpus", str(bad),
            "--taxonomy", str(pipeline["taxonomy"]), "--out", str(tmp_path / "stats"),
        ])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert f"({bad}:2)" in res.output


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
