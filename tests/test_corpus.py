import json

import pytest

from conftest import corpus_rows, make_taxonomy
from research_space.corpus import (
    EntityKind,
    PublicationRecord,
    VenueFieldMap,
    load_records,
    match_venue,
    normalize_venue,
    resolve_corpus,
    venue_substrings,
)
from research_space.errors import ConfigError


class TestVenueSubstrings:
    def test_split_example(self):
        assert venue_substrings("Example Journal: an experiment/EJ") == [
            "Example Journal: an experiment/EJ",
            "Example Journal",
            "an experiment",
            "EJ",
        ]

    def test_no_split_chars(self):
        assert venue_substrings("Nature") == ["Nature"]

    def test_hyphen(self):
        assert venue_substrings("A-B") == ["A-B", "A", "B"]

    def test_idempotent_on_first_element(self):
        subs = venue_substrings("Example Journal: an experiment/EJ")
        # re-splitting a piece with no split chars returns itself
        assert venue_substrings(subs[1])[0] == subs[1]


class TestMatchVenue:
    @pytest.fixture
    def vmap(self):
        return VenueFieldMap({
            "Example Journal": {"F001"},
            "Nature": {"F002", "F003"},
        })

    def test_exact(self, vmap):
        assert match_venue("Nature", vmap) == (frozenset({"F002", "F003"}), "exact")

    def test_exact_is_case_insensitive(self, vmap):
        assert match_venue("  NATURE ", vmap)[1] == "exact"

    def test_approximate_via_substring(self, vmap):
        fields, kind = match_venue("Example Journal: an experiment/EJ", vmap)
        assert fields == frozenset({"F001"})
        assert kind == "approximate"

    def test_exact_wins_over_substrings(self, vmap):
        # full name present as a key -> exact regardless of splittable content
        vmap2 = VenueFieldMap({
            "Example Journal: an experiment/EJ": {"F003"},
            "Example Journal": {"F001"},
        })
        fields, kind = match_venue("Example Journal: an experiment/EJ", vmap2)
        assert (fields, kind) == (frozenset({"F003"}), "exact")

    def test_unmatched(self, vmap):
        assert match_venue("Unknown Venue", vmap) is None


def test_normalize_venue_collapses_whitespace():
    assert normalize_venue("  The   Journal  ") == "the journal"


class TestLoadRecords:
    def _write(self, tmp_path, rows):
        path = tmp_path / "records.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return path

    def test_well_formed(self, tmp_path):
        rows = [
            {"researcher_id": "r1", "venue": "Nature", "year": 2010, "n_authors": 2},
            {"researcher_id": "r2", "venue": "Science", "year": 2011, "n_authors": 1},
            {"researcher_id": "r1", "venue": "Cell", "year": 2012, "n_authors": 3},
        ]
        report = load_records(self._write(tmp_path, rows))
        assert len(report.records) == 3
        assert report.issues == []

    def test_zero_authors_rejected_per_row(self, tmp_path):
        rows = [
            {"researcher_id": "r1", "venue": "Nature", "year": 2010, "n_authors": 0},
            {"researcher_id": "r2", "venue": "Science", "year": 2011, "n_authors": 1},
        ]
        report = load_records(self._write(tmp_path, rows))
        assert len(report.records) == 1
        assert len(report.issues) == 1
        assert report.issues[0][0] == 1
        assert "n_authors" in report.issues[0][1]

    def test_missing_mandatory_field_reported(self, tmp_path):
        rows = [{"researcher_id": "r1", "year": 2010, "n_authors": 2}]
        report = load_records(self._write(tmp_path, rows))
        assert report.records == []
        assert "venue" in report.issues[0][1]

    def test_year_out_of_range(self, tmp_path):
        rows = [{"researcher_id": "r1", "venue": "V", "year": 1500, "n_authors": 1}]
        # non-integral or boolean numbers are invalid rows too, never truncated
        rows += [{"researcher_id": "r1", "venue": "V", "year": y, "n_authors": n}
                 for y, n in ((2001.7, 2), (2001, 2.9), (True, 1), (2001, True))]
        report = load_records(self._write(tmp_path, rows))
        assert report.records == []
        assert [line for line, _ in report.issues] == [1, 2, 3, 4, 5]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            load_records(tmp_path / "x", fmt="nope")

    def test_csv_format(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(
            "researcher_id,venue,year,n_authors,institution,state\n"
            "r1,Nature,2010,2,UFMG,MG\n"
        )
        report = load_records(path, fmt="csv")
        assert report.records == [
            PublicationRecord("r1", "Nature", 2010, 2, "UFMG", "MG")
        ]

    def test_zenodo_profile_aliases(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("lattes_id,journal,publication_year,num_authors\nr1,Nature,2010,2\n")
        report = load_records(path, fmt="zenodo")
        assert report.records[0].researcher_id == "r1"
        assert report.records[0].n_authors == 2


class TestResolveCorpus:
    @pytest.fixture
    def inputs(self):
        taxonomy = make_taxonomy(6)
        vmap = VenueFieldMap({"Nature": {"F001", "F002"}, "Cell": {"F003"}})
        records = [
            PublicationRecord("r1", "Nature", 2010, 2, institution="UFMG"),
            PublicationRecord("r2", "Cell Reports-Cell", 2011, 1, institution="UFMG"),
            PublicationRecord("r3", "Unknown", 2012, 1, institution="USP"),
            PublicationRecord("r4", "Cell", 2013, 1, institution=None),
        ]
        return records, vmap, taxonomy

    def test_scientist_aggregation(self, inputs):
        records, vmap, taxonomy = inputs
        out = resolve_corpus(records, vmap, taxonomy, EntityKind.SCIENTIST)
        assert out.entity_ids == ["r1", "r2", "r4"]
        assert out.match_stats.exact == 2
        assert out.match_stats.approximate == 1
        assert out.match_stats.unmatched == 1
        assert out.match_stats.total == len(records)

    def test_institution_aggregation_shares_entity(self, inputs):
        records, vmap, taxonomy = inputs
        out = resolve_corpus(records, vmap, taxonomy, EntityKind.INSTITUTION)
        assert corpus_rows(out) == [("UFMG", ("F001", "F002"), 2, 2010),
                                    ("UFMG", ("F003",), 1, 2011)]
        # r4 matched but has no institution -> excluded and counted
        assert out.match_stats.missing_attribute == 1

    def test_fields_carried(self, inputs):
        records, vmap, taxonomy = inputs
        out = resolve_corpus(records, vmap, taxonomy, EntityKind.SCIENTIST)
        by_id = {row[0]: row for row in corpus_rows(out)}
        assert by_id["r1"][1] == ("F001", "F002")
        assert out.field_sets == [("F001", "F002"), ("F003",)]

    def test_record_count_never_grows(self, inputs):
        records, vmap, taxonomy = inputs
        for kind in EntityKind:
            out = resolve_corpus(records, vmap, taxonomy, kind)
            assert len(out) <= len(records)

    def test_institution_entities_at_most_scientists(self, inputs):
        records, vmap, taxonomy = inputs
        # with full attributes, institutions can only merge scientists
        full = [
            PublicationRecord(r.researcher_id, r.venue_name, r.year, r.n_authors,
                              institution=r.institution or "X")
            for r in records
        ]
        sci = resolve_corpus(full, vmap, taxonomy, EntityKind.SCIENTIST)
        inst = resolve_corpus(full, vmap, taxonomy, EntityKind.INSTITUTION)
        assert len(inst.entity_ids) <= len(sci.entity_ids)

    def test_unknown_field_in_map(self, inputs):
        records, _, taxonomy = inputs
        bad = VenueFieldMap({"Nature": {"F999"}})
        with pytest.raises(ConfigError):
            resolve_corpus(records, bad, taxonomy, EntityKind.SCIENTIST)
