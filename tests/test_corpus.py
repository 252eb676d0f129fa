import csv
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from conftest import corpus_rows, make_taxonomy
from research_space import corpus as corpus_mod
from research_space.corpus import (
    EntityKind,
    VenueFieldMap,
    match_venue,
    normalize_venue,
    resolve_corpus,
    venue_substrings,
)
from research_space.errors import ConfigError, ParseError


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


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


CSV_COLUMNS = ("researcher_id", "venue", "year", "n_authors", "institution", "state")


def write_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows([row.get(k) for k in CSV_COLUMNS] for row in rows)
    return path


class TestLoadRecords:
    @pytest.fixture
    def load(self, tmp_path):
        """Resolve rows written as JSONL with a map that matches every venue
        of these tests, for scientists."""
        vmap = VenueFieldMap({"Nature": {"F001"}, "Science": {"F002"},
                              "Cell": {"F003"}, "V": {"F004"}})

        def load(rows):
            return resolve_corpus(write_jsonl(tmp_path / "records.jsonl", rows),
                                  vmap, make_taxonomy(6), EntityKind.SCIENTIST)
        return load

    def test_well_formed(self, load):
        rows = [
            {"researcher_id": "r1", "venue": "Nature", "year": 2010, "n_authors": 2},
            {"researcher_id": "r2", "venue": "Science", "year": 2011, "n_authors": 1},
            {"researcher_id": "r1", "venue": "Cell", "year": 2012, "n_authors": 3},
        ]
        out, issues = load(rows)
        assert len(out) == 3
        assert issues == []

    def test_zero_authors_rejected_per_row(self, load):
        rows = [
            {"researcher_id": "r1", "venue": "Nature", "year": 2010, "n_authors": 0},
            {"researcher_id": "r2", "venue": "Science", "year": 2011, "n_authors": 1},
        ]
        out, issues = load(rows)
        assert len(out) == 1
        assert len(issues) == 1
        assert issues[0][0] == 1
        assert "n_authors" in issues[0][1]

    @pytest.mark.parametrize("fmt, too_many", [("jsonl", 10**29), ("jsonl", 2**63),
                                                ("csv", "9" * 25), ("csv", str(2**63))])
    def test_n_authors_over_int64_is_an_invalid_row(self, tmp_path, fmt, too_many):
        rows = [{"researcher_id": "r1", "venue": "Nature", "year": 2010,
                 "n_authors": n} for n in (too_many, 2**63 - 1)]
        path = (write_jsonl if fmt == "jsonl" else write_csv)(tmp_path / "records", rows)
        out, issues = resolve_corpus(path, VenueFieldMap({"Nature": {"F001"}}),
                                     make_taxonomy(6), EntityKind.SCIENTIST, fmt=fmt)
        assert issues == [(1 if fmt == "jsonl" else 2,
                           f"n_authors {int(too_many)} exceeds {2**63 - 1}")]
        assert out.n_authors.tolist() == [2**63 - 1]

    def test_missing_mandatory_field_reported(self, load):
        rows = [{"researcher_id": "r1", "year": 2010, "n_authors": 2}]
        out, issues = load(rows)
        assert len(out) == 0
        assert "venue" in issues[0][1]

    def test_year_out_of_range(self, load):
        rows = [{"researcher_id": "r1", "venue": "V", "year": 1500, "n_authors": 1}]
        # non-integral or boolean numbers are invalid rows too, never truncated
        rows += [{"researcher_id": "r1", "venue": "V", "year": y, "n_authors": n}
                 for y, n in ((2001.7, 2), (2001, 2.9), (True, 1), (2001, True))]
        out, issues = load(rows)
        assert len(out) == 0
        assert [line for line, _ in issues] == [1, 2, 3, 4, 5]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            resolve_corpus(tmp_path / "x", VenueFieldMap({}), make_taxonomy(6),
                           EntityKind.SCIENTIST, fmt="nope")

    def test_csv_format(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(
            "researcher_id,venue,year,n_authors,institution,state\n"
            "r1,Nature,2010,2,UFMG,MG\n"
        )
        vmap = VenueFieldMap({"Nature": {"F001"}})
        for kind, eid in (("scientist", "r1"), ("institution", "UFMG"),
                          ("state", "MG")):
            out, issues = resolve_corpus(path, vmap, make_taxonomy(6),
                                         EntityKind(kind), fmt="csv")
            assert (corpus_rows(out), issues) == ([(eid, ("F001",), 2, 2010)], [])

    def test_zenodo_profile_aliases(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("lattes_id,journal,publication_year,num_authors\nr1,Nature,2010,2\n")
        out, _ = resolve_corpus(path, VenueFieldMap({"Nature": {"F001"}}),
                                make_taxonomy(6), EntityKind.SCIENTIST, fmt="zenodo")
        assert out.entity_ids[out.entity[0]] == "r1"
        assert out.n_authors[0] == 2


class TestResolveCorpus:
    ROWS = [
        {"researcher_id": "r1", "venue": "Nature", "year": 2010, "n_authors": 2,
         "institution": "UFMG"},
        {"researcher_id": "r2", "venue": "Cell Reports-Cell", "year": 2011,
         "n_authors": 1, "institution": "UFMG"},
        {"researcher_id": "r3", "venue": "Unknown", "year": 2012, "n_authors": 1,
         "institution": "USP"},
        {"researcher_id": "r4", "venue": "Cell", "year": 2013, "n_authors": 1},
    ]

    @pytest.fixture
    def inputs(self, tmp_path):
        taxonomy = make_taxonomy(6)
        vmap = VenueFieldMap({"Nature": {"F001", "F002"}, "Cell": {"F003"}})
        return write_jsonl(tmp_path / "records.jsonl", self.ROWS), vmap, taxonomy

    def test_scientist_aggregation(self, inputs):
        records, vmap, taxonomy = inputs
        out, _ = resolve_corpus(records, vmap, taxonomy, EntityKind.SCIENTIST)
        assert out.entity_ids == ["r1", "r2", "r4"]
        assert out.match_stats.exact == 2
        assert out.match_stats.approximate == 1
        assert out.match_stats.unmatched == 1
        assert out.match_stats.total == len(self.ROWS)

    def test_institution_aggregation_shares_entity(self, inputs):
        records, vmap, taxonomy = inputs
        out, _ = resolve_corpus(records, vmap, taxonomy, EntityKind.INSTITUTION)
        assert corpus_rows(out) == [("UFMG", ("F001", "F002"), 2, 2010),
                                    ("UFMG", ("F003",), 1, 2011)]
        # r4 matched but has no institution -> excluded and counted
        assert out.match_stats.missing_attribute == 1

    def test_fields_carried(self, inputs):
        records, vmap, taxonomy = inputs
        out, _ = resolve_corpus(records, vmap, taxonomy, EntityKind.SCIENTIST)
        by_id = {row[0]: row for row in corpus_rows(out)}
        assert by_id["r1"][1] == ("F001", "F002")
        assert out.field_sets == [("F001", "F002"), ("F003",)]

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_empty_attribute_is_missing(self, tmp_path, fmt):
        rows = [{**self.ROWS[0], "institution": ""}, self.ROWS[1]]
        write = write_jsonl if fmt == "jsonl" else write_csv
        out, issues = resolve_corpus(write(tmp_path / "records", rows),
                                     VenueFieldMap({"Cell": {"F003"}, "Nature": {"F001"}}),
                                     make_taxonomy(6), EntityKind.INSTITUTION, fmt=fmt)
        assert (out.entity_ids, out.match_stats.missing_attribute, issues) == (
            ["UFMG"], 1, [])

    def test_record_count_never_grows(self, inputs):
        records, vmap, taxonomy = inputs
        for kind in EntityKind:
            out, _ = resolve_corpus(records, vmap, taxonomy, kind)
            assert len(out) <= len(self.ROWS)

    def test_institution_entities_at_most_scientists(self, inputs, tmp_path):
        _, vmap, taxonomy = inputs
        # with full attributes, institutions can only merge scientists
        full = write_jsonl(tmp_path / "full.jsonl",
                           [{**r, "institution": r.get("institution") or "X"}
                            for r in self.ROWS])
        sci, _ = resolve_corpus(full, vmap, taxonomy, EntityKind.SCIENTIST)
        inst, _ = resolve_corpus(full, vmap, taxonomy, EntityKind.INSTITUTION)
        assert len(inst.entity_ids) <= len(sci.entity_ids)

    def test_unknown_field_in_map(self, inputs):
        records, _, taxonomy = inputs
        bad = VenueFieldMap({"Nature": {"F999"}})
        with pytest.raises(ConfigError):
            resolve_corpus(records, bad, taxonomy, EntityKind.SCIENTIST)


def _maybe(key, values):
    """A one-entry dict under ``key`` drawn from ``values``, or no entry."""
    return st.one_of(st.just({}), values.map(lambda v: {key: v}))


# Rows valid and invalid in every way the two passes check, with string and
# integer ids. Integer institutions and states are never 0, which the oracle
# reads as absent.
ROW = st.builds(
    lambda *parts: {k: v for part in parts for k, v in part.items()},
    _maybe("researcher_id", st.sampled_from(["r1", "r2", "r3", "", " r1", 7, 0])),
    _maybe("venue", st.sampled_from(["Nature", "nature ", "Cell Reports-Cell",
                                     "Cell", "Unknown", ""])),
    _maybe("year", st.one_of(st.integers(1890, 2110),
                             st.sampled_from([2001.0, 2001.5, True, "2005", "x",
                                              None, " 2005", "2_005", "２００５",
                                              10**30]))),
    _maybe("n_authors", st.one_of(st.integers(-1, 4),
                                  st.sampled_from([2.0, 2.5, False, True, "3",
                                                   None, 10**29]))),
    _maybe("institution", st.sampled_from([None, "", "UFMG", "USP", 5])),
    _maybe("state", st.sampled_from([None, "", "MG", "SP", 31])),
)
# JSON values that are not objects, and where among the rows they go.
NON_OBJECTS = st.lists(st.tuples(st.integers(0, 30),
                                 st.sampled_from([[], [1, 2], "x", 5, None])),
                       max_size=3)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(ROW, max_size=30), others=NON_OBJECTS,
       fmt=st.sampled_from(["jsonl", "csv"]), kind=st.sampled_from(list(EntityKind)))
def test_one_pass_equals_two_pass_oracle(tmp_path, monkeypatch, rows, others, fmt,
                                         kind):
    # chunks of 3 records, so that most examples cross chunk boundaries
    monkeypatch.setattr(corpus_mod, "CHUNK_ROWS", 3)
    rows = list(rows)
    for at, value in others if fmt == "jsonl" else ():
        rows.insert(at, value)
    write = write_jsonl if fmt == "jsonl" else write_csv
    path = write(tmp_path / f"records.{fmt}", rows)
    vmap = VenueFieldMap({"Nature": {"F002", "F001"}, "Cell": {"F003"}})
    taxonomy = make_taxonomy(6)
    out, issues = resolve_corpus(path, vmap, taxonomy, kind, fmt=fmt)
    if fmt == "jsonl":  # the oracle reads objects only: it gets the others blank
        path.write_text("".join((json.dumps(row) if isinstance(row, dict) else "")
                                + "\n" for row in rows))
    non_objects = [(line_no, f"record must be a JSON object, got {type(row).__name__}")
                   for line_no, row in enumerate(rows, start=1)
                   if not isinstance(row, dict)]
    assert_same_as_oracle(out, issues, path, fmt, vmap, taxonomy, kind, non_objects)


def assert_same_as_oracle(out, issues, path, fmt, vmap, taxonomy, kind, extra_issues=()):
    """``resolve_corpus``'s corpus and issues are the two-pass oracle's, which
    decodes JSONL with json.loads, plus ``extra_issues``."""
    report = oracles.load_records(path, fmt=fmt)
    expected = oracles.resolve_records(report.records, vmap, taxonomy, kind)
    # the oracle keeps integer institutions and states as ints
    assert (out.entity_ids, out.field_sets) == (list(map(str, expected.entity_ids)),
                                                expected.field_sets)
    for name in ("entity", "field_set", "n_authors", "year"):
        column = getattr(out, name)
        assert column.dtype == np.int64
        np.testing.assert_array_equal(column, getattr(expected, name))
    assert (out.kind, out.match_stats) == (expected.kind, expected.match_stats)
    assert issues == sorted(report.issues + list(extra_issues))


def _escaped(key):
    """A JSON string of ``key`` whose first character is a \\u escape."""
    return f'"\\u{ord(key[0]):04x}{key[1:]}"'


# JSON text of the values of each record key, with \u escapes (a lone
# surrogate among them), the constants NaN and Infinity, integer-valued
# floats and numbers that overflow to inf.
# Floats stay out of the text keys, which the oracle would read as strings.
RAW_VALUES = {
    "researcher_id": ['"r1"', '"r\\u0031"', '"\\u00e9"', '"\\ud83d\\ude00"', '"\\ud800"',
                      "7", '""'],
    "venue": ['"Nature"', '"N\\u0061ture"', '"Cell"', '"Caf\\u00e9"', '"Unknown"'],
    "year": ["2001", "2001.0", "2.001e3", "2001E0", "2001.5", '"2005"', "NaN",
             "Infinity", "-Infinity", "1e400", "null"],
    "n_authors": ["1", "2.0", "1E0", "-0.0", "3", "NaN", "Infinity", "true"],
    "institution": ['"UFMG"', '"\\u0055SP"', "null", '""', "5"],
    "state": ['"MG"', '"S\\u0050"', "null", "31"],
    "extra": ["NaN", '[1, {"a": -Infinity}]', '"\\u0000"', '"\\udc00"', "{}"],
}
PAIR = st.sampled_from(sorted(RAW_VALUES)).flatmap(lambda key: st.tuples(
    st.sampled_from([json.dumps(key), _escaped(key)]), st.sampled_from(RAW_VALUES[key])))
# Each mandatory key once, between pairs that may repeat any key (the last wins).
RAW_OBJECT = st.tuples(
    st.lists(PAIR, max_size=3),
    st.tuples(*(st.tuples(st.just(json.dumps(key)), st.sampled_from(RAW_VALUES[key]))
                for key in ("researcher_id", "venue", "year", "n_authors"))),
    st.lists(PAIR, max_size=3),
).map(lambda parts: "{" + ", ".join(f"{k}: {v}" for part in parts
                                     for k, v in part) + "}")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(RAW_OBJECT, max_size=20), chunk=st.sampled_from([1, 3, 512]),
       kind=st.sampled_from(list(EntityKind)))
def test_scanned_lines_equal_json_loads_oracle(tmp_path, monkeypatch, lines, chunk,
                                               kind):
    monkeypatch.setattr(corpus_mod, "CHUNK_ROWS", chunk)
    path = tmp_path / "records.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    vmap = VenueFieldMap({"Nature": {"F002", "F001"}, "Café": {"F003"}})
    taxonomy = make_taxonomy(6)
    out, issues = resolve_corpus(path, vmap, taxonomy, kind)
    assert_same_as_oracle(out, issues, path, "jsonl", vmap, taxonomy, kind)


class TestDelimitedRows:
    """csv.reader columns read as csv.DictReader rows did, with warnings on
    the physical line a row starts on."""

    VMAP = VenueFieldMap({"Nature": {"F001"}, "Cell": {"F002"}})

    def resolve(self, tmp_path, text):
        path = tmp_path / "records.csv"
        path.write_text(text, encoding="utf-8")
        out, issues = resolve_corpus(path, self.VMAP, make_taxonomy(6),
                                     EntityKind.STATE, fmt="csv")
        report = oracles.load_records(path, fmt="csv")
        expected = oracles.resolve_records(report.records, self.VMAP,
                                           make_taxonomy(6), EntityKind.STATE)
        assert corpus_rows(out) == corpus_rows(expected)
        assert issues == report.issues
        return corpus_rows(out), issues

    HEADER = "researcher_id,venue,year,n_authors,state\n"

    def test_blank_first_line_is_the_header(self, tmp_path):
        with pytest.raises(ParseError, match="missing required columns"):
            self.resolve(tmp_path, "\n" + self.HEADER + "r1,Nature,2010,2,MG\n")

    def test_last_of_repeated_header_names_wins(self, tmp_path):
        rows, _ = self.resolve(tmp_path, "researcher_id,venue,year,n_authors,state,"
                               "state\nr1,Nature,2010,2,MG,SP\nr2,Cell,2011,1,RJ\n")
        # a row too short for the last "state" reads None there
        assert rows == [("SP", ("F001",), 2, 2010)]

    def test_blank_rows_skipped_and_short_rows_read_none(self, tmp_path):
        rows, issues = self.resolve(tmp_path, self.HEADER + "\nr1,Nature,2010,2,MG\n"
                                    "\n\nr2,Cell,2011\nr3,Cell,2012,1\n")
        assert rows == [("MG", ("F001",), 2, 2010)]
        assert issues == [(6, "missing mandatory field 'n_authors'")]

    def test_extra_cells_ignored(self, tmp_path):
        rows, issues = self.resolve(tmp_path, self.HEADER + "r1,Nature,2010,2,MG,x,y\n")
        assert (rows, issues) == ([("MG", ("F001",), 2, 2010)], [])

    def test_warning_names_the_line_after_a_blank_line(self, tmp_path):
        _, issues = self.resolve(tmp_path, self.HEADER + "r1,Nature,2010,2,MG\n\n"
                                 "r2,Nature,abc,2,MG\n")
        assert [line for line, _ in issues] == [4]

    def test_warning_names_the_line_after_a_multi_line_venue(self, tmp_path):
        _, issues = self.resolve(tmp_path, self.HEADER + 'r1,"Nature\nLetters",2010,'
                                 "2,MG\nr2,Nature,abc,2,MG\nr3,Cell,2010,0,SP\n")
        assert [line for line, _ in issues] == [4, 5]

    def test_digit_string_over_the_conversion_limit_is_an_invalid_row(self, tmp_path):
        _, issues = self.resolve(tmp_path, self.HEADER + f"r1,Nature,{'9' * 5000},2,MG\n")
        assert [line for line, _ in issues] == [2]

    def test_blank_lines_across_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus_mod, "CHUNK_ROWS", 2)
        _, issues = self.resolve(tmp_path, self.HEADER + "\n\n\n" + "r1,Nature,2010,"
                                 "2,MG\n\n" * 3 + "r2,Nature,1800,2,MG\n")
        assert issues == [(11, "year 1800 outside sane range [1900, 2100]")]


def test_jsonl_lines_are_decoded_one_by_one(tmp_path):
    # as one JSON array the three lines would give three objects
    path = tmp_path / "records.jsonl"
    path.write_text('{"a":[{}\n{}]}\n{},{}\n')
    with pytest.raises(ParseError, match=r"invalid JSON: .*records\.jsonl:1\)"):
        resolve_corpus(path, VenueFieldMap({}), make_taxonomy(6), EntityKind.SCIENTIST)


@pytest.mark.parametrize("chunk", [1, 2, 512])
def test_bad_json_names_its_line_inside_a_chunk(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(corpus_mod, "CHUNK_ROWS", chunk)
    row = json.dumps({"researcher_id": "r1", "venue": "V", "year": 2001,
                      "n_authors": 1})
    path = tmp_path / "records.jsonl"
    path.write_text(f"{row}\n\n{row}\n{{bad\n{row}\n")
    with pytest.raises(ParseError) as err:
        resolve_corpus(path, VenueFieldMap({}), make_taxonomy(6), EntityKind.SCIENTIST)
    assert err.value.line == 4


@pytest.mark.parametrize("chunk", [1, 2, 512])
@pytest.mark.parametrize("bad", ["{bad", "{} {}", "\ufeff{}", "[1", "9" * 5000],
                         ids=["bad_object", "extra_data", "byte_order_mark", "truncated",
                              "long_integer"])
def test_bad_json_line_gives_json_loads_error(tmp_path, monkeypatch, chunk, bad):
    monkeypatch.setattr(corpus_mod, "CHUNK_ROWS", chunk)
    row = json.dumps({"researcher_id": "r1", "venue": "V", "year": 2001,
                      "n_authors": 1})
    path = tmp_path / "records.jsonl"
    path.write_text(f"{row}\n\n{row}\n{bad}\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError) as expected:
        json.loads(bad)
    with pytest.raises(ParseError) as err:
        resolve_corpus(path, VenueFieldMap({}), make_taxonomy(6), EntityKind.SCIENTIST)
    assert str(err.value) == f"invalid JSON: {expected.value} ({path}:4)"
    assert err.value.line == 4


def test_peak_memory_per_record_is_small(tmp_path):
    # 10k valid rows by 500 researchers in 200 venues
    rows = [{"researcher_id": f"R{i % 500:06d}", "venue": f"Journal {i % 200}",
             "year": 2000 + i % 16, "n_authors": 1 + i % 5,
             "institution": f"INST{i % 40:03d}", "state": f"S{i % 7:02d}"}
            for i in range(10_000)]
    path = write_jsonl(tmp_path / "records.jsonl", rows)
    vmap = VenueFieldMap({f"Journal {v}": {f"F{v % 6 + 1:03d}"} for v in range(200)})
    taxonomy = make_taxonomy(6)
    del rows
    tracemalloc.start()
    try:
        out, _ = resolve_corpus(path, vmap, taxonomy, EntityKind.SCIENTIST)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 10_000
    assert peak / len(out) < 250, f"{peak / len(out):.0f} B per record"
