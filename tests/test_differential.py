"""End-to-end differential test: random records through the CLI's ingest,
fit --model freq, predict and evaluate, run in-process, against the oracles
of oracles.py chained on the same inputs.

Each layer has its own oracle test; this one checks the seams between them:
the entity axis, the windows and the field order each command passes on.
The oracle chain shares no code with the package's pipeline but the
taxonomy and venue-map containers: it loads and resolves records in two
passes, builds X record by record, and takes RCA, φ, the stages, the masks,
ω, AUROC and the predict listing from their definitions.

Exact things are compared exactly: exit codes, warnings, the match report,
the entity order, φ as printed, and n_pos and n_neg. The rest is compared
as printed: the predict TSV and auroc.tsv byte for byte. Both chains add
the same floats in the same order, so they agree bit for bit even where an
RCA lies within 1e-12 of a stage threshold (0.5 or 1) or two candidates'
densities lie within 1e-12 of each other. Such examples are compared in
full and counted as hypothesis events
(``pytest --hypothesis-show-statistics`` shows the counts).
"""

import json
import random
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
from conftest import corpus_rows, make_taxonomy
from research_space.artifacts import ProximityMatrix
from research_space.cli import main
from research_space.corpus import EntityKind, VenueFieldMap
from research_space.presence import TimeWindow
from test_cli import Runner, write_taxonomy_file

ENTITIES = [f"r{i}" for i in range(8)]
YEARS = (2000, 2009)
# Per transition: the RCA above which U = 1, the source stage and the lowest
# stage that realizes it, with the stages 0 (RCA 0), 1 (below 0.5),
# 2 (below 1) and 3 written out here, apart from the package's table.
TRANSITIONS = {"0A": (0.0, 0, 1), "ND": (1.0, 1, 3), "ID": (1.0, 2, 3)}
INVALID_ROWS = [
    {"researcher_id": "r1", "year": 2003, "n_authors": 1},  # no venue
    {"researcher_id": "r2", "venue": "Journal F001", "year": 2003, "n_authors": 0},
    {"researcher_id": "r3", "venue": "Journal F002", "year": 1850, "n_authors": 2},
    {"researcher_id": "r4", "venue": "Journal F001", "year": True, "n_authors": 1},
    {"researcher_id": "r5", "venue": "Journal F003", "year": 2004, "n_authors": 1.5},
    [1, 2],  # valid JSON, not an object
    {"researcher_id": ["r6"], "venue": "Journal F001", "year": 2003, "n_authors": 1},
]


def stages(r):
    return np.select([r >= 1.0, r >= 0.5, r > 0], [3, 2, 1], 0)


def records(rng, names, spans, end, n_rows):
    """n_rows JSONL rows drawn from rng, about a sixth of them invalid. A row's
    year lies in one of spans, each as likely. Each entity ranks the venue
    names in an order of its own, each 0.6 times as likely as the one before,
    and belongs mostly to one institution. After year ``end`` it swaps its
    first venue with a later one, so that fields of every stage enter."""
    ranked = {eid: rng.sample(names, len(names)) for eid in ENTITIES}
    later = {}
    for eid, order in ranked.items():
        j = rng.randrange(1, len(order))
        later[eid] = [order[j], *order[1:j], order[0], *order[j + 1:]]
    odds = [0.6 ** i for i in range(len(names))]
    insts = ["U1", "U2", "U3", ""]
    home = {eid: rng.choice(insts[:3]) for eid in ENTITIES}
    forms = ["{}", "{}", "  {}\t", "{}: Proceedings", "Annals/{}", "Unknown Venue"]
    rows = []
    for _ in range(n_rows):
        eid, form = rng.choice(ENTITIES), rng.choice(forms)
        year = rng.choice(rng.choice(spans))
        name, = rng.choices((later if year > end else ranked)[eid], odds)
        if rng.random() < 1 / 6:
            rows.append(rng.choice(INVALID_ROWS))
            continue
        rows.append({
            "researcher_id": eid, "venue": form.format(
                name.upper() if "\t" in form else name.lower() if "/" in form else name),
            "year": str(year) if rng.random() < 0.5 else year,
            "n_authors": rng.choice([1, 2, 3, 5, 10]),
            "institution": home[eid] if rng.random() < 0.75 else rng.choice(insts)})
    return rows


@st.composite
def scenarios(draw):
    end = draw(st.integers(YEARS[0] + 1, YEARS[1] - 2))
    fit_start = draw(st.integers(YEARS[0], end))
    rca_start = draw(st.integers(fit_start, end))
    test_end = draw(st.integers(end + 1, YEARS[1]))
    # the taxonomy, the venue map and the rows come from a generator seeded
    # by a drawn integer and the windows: hypothesis draws small integers far
    # more often than large ones and repeats a drawn value across examples, so
    # rows read digit by digit from drawn integers were far from uniform (3%
    # of them invalid, where 58% were meant)
    rng = random.Random(repr((draw(st.integers(0, 2**32 - 1)), end, fit_start,
                              rca_start, test_end)))
    taxonomy = make_taxonomy(rng.randint(3, 12))
    fids = taxonomy.field_ids
    venues = {f"Journal {fid}": {fid} for fid in fids}
    for k in range(rng.randint(0, 3)):
        venues[f"Review {k}"] = set(rng.sample(fids, rng.randint(2, 3)))
    # a row's year is any year, one in the RCA window or one in the test
    # window, each as likely; one example in ten leaves the fit, RCA or test
    # window without records
    fit, rca, test = (range(fit_start, end + 1), range(rca_start, end + 1),
                      range(end + 1, test_end + 1))
    gap = rng.choice([range(0)] * 27 + [fit, rca, test])
    spans = [[year for year in span if year not in gap]
             for span in (range(YEARS[0], YEARS[1] + 1), rca, test)]
    rows = records(rng, sorted(venues), [span for span in spans if span], end,
                   rng.randint(150, 250))
    return {
        "taxonomy": taxonomy, "venues": venues, "rows": rows,
        "kind": draw(st.sampled_from([EntityKind.SCIENTIST, EntityKind.INSTITUTION])),
        "fit": TimeWindow(fit_start, end), "rca": TimeWindow(rca_start, end),
        "test": TimeWindow(end + 1, test_end),
        "theta": draw(st.sampled_from([0.05, 0.2])),
        "transition": draw(st.sampled_from(sorted(TRANSITIONS))),
        "full_candidates": draw(st.booleans()),
        "entities": draw(st.none() | st.lists(
            st.sampled_from(ENTITIES + ["U1", "U3", "nobody"]), min_size=1, max_size=4)),
    }


def write_inputs(s, d):
    write_taxonomy_file(s["taxonomy"], d / "taxonomy.tsv")
    (d / "venues.tsv").write_text("venue_name\tfield_id\n" + "".join(
        f"{name}\t{fid}\n" for name, fids in s["venues"].items() for fid in sorted(fids)))
    (d / "records.jsonl").write_text("".join(json.dumps(row) + "\n" for row in s["rows"]))


class Oracle:
    """The pipeline from its definitions, on the oracle corpus's entity axis."""

    def __init__(self, s, records_path):
        self.s, self.taxonomy = s, s["taxonomy"]
        report = oracles.load_records(records_path)
        self.issues = report.issues
        vmap = VenueFieldMap({name: frozenset(f) for name, f in s["venues"].items()})
        self.corpus = oracles.resolve_records(report.records, vmap, self.taxonomy,
                                              s["kind"])
        self.rows = corpus_rows(self.corpus)
        self.ids = self.corpus.entity_ids

    def x(self, window):
        """(records per entity in the window, X on the corpus's entity axis)."""
        mat, in_window = oracles.contribution_matrix_loop(self.rows, self.taxonomy,
                                                          window)
        x = np.zeros((len(self.ids), len(self.taxonomy)))
        x[[self.ids.index(e) for e in in_window]] = mat
        n_records = np.array([sum(e == eid and window.start_year <= y <= window.end_year
                                  for e, _, _, y in self.rows) for eid in self.ids],
                             dtype=np.int64)
        return n_records, x

    def rca(self, window):
        n_records, x = self.x(window)
        return n_records, oracles.rca_bruteforce(x) if n_records.any() else None


def near_threshold(*rcas):
    return any(np.any((r != c) & (np.abs(r - c) <= 1e-12)) for r in rcas
               for c in (0.5, 1.0))


@given(scenarios())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_cli_matches_chained_oracles(s):
    runner = Runner()
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_inputs(s, d)
        oracle = Oracle(s, d / "records.jsonl")
        tax = ["--taxonomy", str(d / "taxonomy.tsv")]
        corpus = ["--corpus", str(d / "corpus" / "corpus.jsonl"), *tax]

        # ingest: warnings, match report and summary line
        res = runner.invoke(main, [
            "ingest", "--records", str(d / "records.jsonl"),
            "--venue-map", str(d / "venues.tsv"), *tax, "--kind", s["kind"].value,
            "--out", str(d / "corpus")])
        assert res.exit_code == 0, res.output
        assert res.stderr == "".join(f"warning: line {line}: {msg}\n"
                                     for line, msg in oracle.issues)
        stats = oracle.corpus.match_stats
        report = json.loads((d / "corpus" / "match_report.json").read_text())
        assert report == {**vars(stats), "invalid_rows": len(oracle.issues),
                          "resolved_records": len(oracle.rows)}
        total = max(stats.total, 1)
        assert res.stdout == (f"resolved {len(oracle.rows)} records (exact "
                              f"{stats.exact / total:.1%}, exact+approx "
                              f"{(stats.exact + stats.approximate) / total:.1%})\n")

        # fit --model freq: phi.tsv as printed, or exit 1 without presence
        res = runner.invoke(main, [
            "fit", *corpus, "--window", str(s["fit"]), "--theta", str(s["theta"]),
            "--model", "freq", "--out", str(d / "phi")])
        p = (oracle.x(s["fit"])[1] > s["theta"]).astype(np.int8)
        if not p.any():
            event("fit: no presence")
            assert res.exit_code == 1 and "nothing to fit" in res.stderr, res.output
            return
        assert res.exit_code == 0, res.output
        phi = oracles.proximity_freq_bruteforce(p)
        expected_phi = d / "phi_oracle.tsv"
        oracles.save_proximity_per_value(
            ProximityMatrix(phi, oracle.taxonomy.field_ids, "frequentist",
                                    s["fit"]), expected_phi)
        got = (d / "phi" / "phi.tsv").read_text().splitlines()
        want = expected_phi.read_text().splitlines()
        assert [l for l in got if not l.startswith("# manifest_hash")] == \
            [l for l in want if not l.startswith("# manifest_hash")]

        # the masks and omega of the RCA window
        threshold, source, target = TRANSITIONS[s["transition"]]
        n_rca, r = oracle.rca(s["rca"])
        n_test, r_after = oracle.rca(s["test"])
        no_records = (f"config error: no record of the corpus falls in window "
                      f"{s['rca']}\n")
        predict = ["predict", "--phi", str(d / "phi" / "phi.tsv"), *corpus,
                   "--rca-window", str(s["rca"]), "--transition", s["transition"],
                   "--top", str(len(oracle.taxonomy))]
        predict += [arg for eid in s["entities"] or () for arg in ("--entity", eid)]
        evaluate = ["evaluate", "--phi-a", str(d / "phi" / "phi.tsv"), *corpus,
                    "--fit", str(s["fit"]), "--rca", str(s["rca"]),
                    "--test", str(s["test"]), "--transition", s["transition"],
                    *(["--full-candidates"] if s["full_candidates"] else []),
                    "--out", str(d / "eval")]
        if r is None:
            event("rca window: no records")
            for args in (predict, evaluate):
                res = runner.invoke(main, args)
                assert (res.exit_code, res.stderr) == (2, no_records), res.output
            return
        if near_threshold(r, *([] if r_after is None else [r_after])):
            event("RCA within 1e-12 of a stage threshold")
        u = (r > threshold).astype(np.int8)
        omega = oracles.density_ix(u, phi)
        gaps = np.abs(omega[:, :, None] - omega[:, None, :])
        if np.any((gaps > 0) & (gaps <= 1e-12)):
            event("two densities of a row within 1e-12")

        # predict: every candidate of each entity, by density then field id
        cand = stages(r) == source
        names = [f.name for f in oracle.taxonomy.fields]
        want_out, want_err = oracles.predict_loop(
            oracle.ids, n_rca, omega, cand, oracle.taxonomy.field_ids, names,
            len(names), s["entities"], s["rca"])
        res = runner.invoke(main, predict)
        assert res.exit_code == 0, res.output
        assert (res.stdout, res.stderr) == (want_out, want_err)

        # evaluate: auroc.tsv and the counts of summary.json
        res = runner.invoke(main, evaluate)
        if r_after is None:
            event("test window: no records")
            assert res.exit_code == 2, res.output
            assert res.stderr == no_records.replace(str(s["rca"]), str(s["test"]))
            return
        assert res.exit_code == 0, res.output
        if s["full_candidates"]:
            cand = u == 0
        realized = (stages(r) == source) & (stages(r_after) >= target)
        auc, n_pos, n_neg = oracles.auroc_midranks(omega, cand, realized)
        scored = [i for i in range(len(oracle.ids)) if n_rca[i] and not np.isnan(auc[i])]
        labels = f"{s['kind'].value}\t{s['transition']}\tfrequentist"
        lines = ["entity_id\tkind\ttransition\tmodel\tauroc\tn_pos\tn_neg"]
        lines += [f"{oracle.ids[i]}\t{labels}\t{auc[i]:.6f}\t{n_pos[i]}\t{n_neg[i]}"
                  for i in scored]
        assert (d / "eval" / "auroc.tsv").read_text() == "\n".join(lines) + "\n"
        summary = json.loads((d / "eval" / "summary.json").read_text())
        assert summary["test_window_only"] == int(np.count_nonzero(n_test[n_rca == 0]))
        model = summary["frequentist"]
        assert (model["n"], model["excluded"]) == (
            len(scored), int(np.count_nonzero(n_rca)) - len(scored))
        if scored:
            values = auc[scored]
            assert [model["q1"], model["median"], model["q3"]] == \
                oracles.quartiles_np(values)
            assert model["mean"] == float(np.mean(values))
        event(f"evaluate: {'some' if scored else 'no'} entity scored")
