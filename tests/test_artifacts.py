import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_corpus
from research_space import artifacts
from research_space.artifacts import ProximityMatrix
from research_space.corpus import EntityKind, MatchStats, ResolvedCorpus
from research_space.errors import ParseError
from research_space.presence import TimeWindow

COLUMNS = ("entity", "field_set", "n_authors", "year")

# Entity ids hold no tab, LF or CR, which predict's and evaluate's TSV rows
# cannot hold; the loader's rejection of them has a test of its own.
entity_ids = st.text(st.characters(blacklist_characters="\t\n\r"), min_size=1,
                     max_size=8) | st.sampled_from(
    ['say "hi"', "São Paulo", "東京", "back\\slash", "form\x0cfeed"])
field_sets = st.lists(st.sampled_from(["F001", "F002", "F010", "Fé"]),
                      min_size=1, max_size=4)
# Each column dtype's smallest and largest value, and one past each, within int64.
EDGES = sorted({v for info in map(np.iinfo, ("i1", "u1", "i2", "u2", "i4", "u4", "i8", "u8"))
                for v in (info.min - 1, info.min, info.max, info.max + 1)
                if -2**63 <= v < 2**63})
n_authors = st.integers(1, 500) | st.integers(1, 2**63 - 1) | st.sampled_from(
    [v for v in EDGES if v >= 1])
years = st.integers(-2**31, 2**31) | st.integers(-2**63, 2**63 - 1) | st.sampled_from(EDGES)
rows = st.lists(st.tuples(entity_ids, field_sets, n_authors, years), max_size=30)
match_stats = st.builds(MatchStats, *(st.integers(0, 10**6) for _ in range(4)))


def narrowest_itemsize(values):
    """Bytes per value of the narrowest little-endian integer dtype holding
    every value."""
    return min(np.dtype(d).itemsize for d in ("i1", "u1", "i2", "u2", "i4", "u4", "i8",
                                             "u8")
               if all(np.iinfo(d).min <= v <= np.iinfo(d).max for v in values))


class TestCorpusArtifact:
    @given(rows, st.sampled_from(list(EntityKind)), match_stats)
    @example([], EntityKind.SCIENTIST, MatchStats())
    @example([("a", ["F001"], 2**63 - 1, -2**63), ("b", ["F002"], 1, 2**63 - 1)],
             EntityKind.SCIENTIST, MatchStats())
    @example([("a", ["F001"], 255, -129), ("b", ["F002"], 256, 127)],
             EntityKind.STATE, MatchStats())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, tmp_path_factory, records, kind, stats):
        corpus = make_corpus(records, kind, stats)
        path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
        artifacts.save_corpus(corpus, path, mhash="abc")
        loaded = artifacts.load_corpus(path)
        assert loaded.entity_ids == corpus.entity_ids
        assert loaded.field_sets == corpus.field_sets
        for name in COLUMNS:
            assert getattr(loaded, name).dtype == np.int64
            np.testing.assert_array_equal(getattr(loaded, name), getattr(corpus, name))
        assert loaded.kind is kind and loaded.match_stats == stats
        # the file is byte-deterministic and holds exactly four lines
        first = path.read_bytes()
        artifacts.save_corpus(loaded, path, mhash="abc")
        assert path.read_bytes() == first and first.count(b"\n") == 4
        # line 4 is json.dumps's text, each column stored in the narrowest
        # integer dtype that holds it
        stored = json.loads(first.splitlines()[3])
        assert first.splitlines()[3].decode() == json.dumps(stored, sort_keys=True)
        assert list(stored) == sorted(COLUMNS)
        for name in COLUMNS:
            values = getattr(corpus, name).tolist()
            assert np.dtype(stored[name]["dtype"]).itemsize == narrowest_itemsize(values)

    @pytest.mark.parametrize("values, dtype", [
        ([0, 255], "|u1"), ([-128, 127], "|i1"), ([0, 256], "<u2"), ([-1, 128], "<i2"),
        ([0, 2**32 - 1], "<u4"), ([-2**31, 2**31 - 1], "<i4"), ([1, 2**63 - 1], "<u8"),
        ([-2**63, 0], "<i8"), ([], "|u1")])
    def test_column_dtype(self, tmp_path, values, dtype):
        corpus = make_corpus([(f"e{i}", ["F001"], 1, v) for i, v in enumerate(values)])
        path = tmp_path / "corpus.jsonl"
        artifacts.save_corpus(corpus, path)
        assert json.loads(path.read_text().splitlines()[3])["year"]["dtype"] == dtype
        np.testing.assert_array_equal(artifacts.load_corpus(path).year, values)

    def test_codes_past_one_byte(self, tmp_path):
        corpus = make_corpus([(f"e{i}", [f"F{i % 300}"], 1, 2000) for i in range(600)])
        path = tmp_path / "corpus.jsonl"
        artifacts.save_corpus(corpus, path)
        stored = json.loads(path.read_text().splitlines()[3])
        assert (stored["entity"]["dtype"], stored["field_set"]["dtype"]) == ("<u2", "<u2")
        loaded = artifacts.load_corpus(path)
        np.testing.assert_array_equal(loaded.entity, np.arange(600))
        np.testing.assert_array_equal(loaded.field_set, np.arange(600) % 300)

    def test_save_peak_memory_per_record_is_small(self, tmp_path):
        n = 50_000
        rng = np.random.default_rng(0)
        corpus = ResolvedCorpus(
            [f"R{i:06d}" for i in range(500)], [("F001",), ("F002", "F003")],
            rng.integers(0, 500, n), rng.integers(0, 2, n), rng.integers(1, 10, n),
            rng.integers(2000, 2016, n), EntityKind.SCIENTIST, MatchStats())
        tracemalloc.start()
        try:
            artifacts.save_corpus(corpus, tmp_path / "corpus.jsonl")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # turning the columns into lists and the file into one string took
        # 165 B per record here; the binary columns line, written a string at
        # a time, takes about 14 B
        assert peak / n < 40, f"{peak / n:.0f} B per record"

    def test_corpus_1_asks_for_ingest(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"schema": "corpus/1", "kind": "scientist"}) + "\n")
        with pytest.raises(ParseError, match="ingest") as err:
            artifacts.load_corpus(path)
        assert err.value.line == 1

    def test_corpus_2_asks_for_ingest(self, tmp_path):
        # a corpus/2 file held its columns as JSON lists of integers
        path = tmp_path / "corpus.jsonl"
        lines = [{"schema": "corpus/2", "kind": "scientist", "manifest_hash": "",
                  "match_stats": {}}, {"entity_ids": ["a"]}, {"field_sets": [["F001"]]},
                 {"entity": [0], "field_set": [0], "n_authors": [1], "year": [2000]}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(ParseError, match="corpus/2 file; run ingest again") as err:
            artifacts.load_corpus(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("ids, bad", [(["a", "bc", "d\ne", "f\rg"], "2 holds '\\n'"),
                                          (["ab", "\tb"], "1 holds '\\t'"),
                                          (["a\r", "b"], "0 holds '\\r'")])
    def test_id_that_breaks_a_tsv_row_is_named(self, tmp_path, ids, bad):
        path = tmp_path / "corpus.jsonl"
        artifacts.save_corpus(make_corpus([(e, ("F001",), 1, 2000) for e in ids]), path)
        with pytest.raises(ParseError) as err:
            artifacts.load_corpus(path)
        assert str(err.value) == (f"entity id {bad}, which a TSV cell cannot hold "
                                  f"({path}:2)")

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe")
        with pytest.raises(ParseError, match="not UTF-8") as err:
            artifacts.load_corpus(path)
        assert err.value.path == path


# Any finite float64, with the edge cases named: signed zeros, the smallest
# subnormal, the largest normal magnitudes.
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308])
ids = st.lists(st.text("ABCDEFGHIJ0123456789_é", min_size=1, max_size=6),
               min_size=1, max_size=6, unique=True)


class TestMatrixArtifacts:
    @given(ids.flatmap(lambda fids: st.tuples(
               st.just(fids), st.lists(finite, min_size=len(fids) ** 2,
                                       max_size=len(fids) ** 2))),
           st.sampled_from(["frequentist", "embedding"]),
           st.integers(-9999, 9999), st.integers(0, 50))
    @example((["F001", "F002"], [-0.0, 5e-324, 1e308, -1e308]), "embedding", 2000, 4)
    @settings(max_examples=200, deadline=None)
    def test_proximity_round_trip_is_bit_identical(self, tmp_path_factory, table,
                                                   model_tag, start, span):
        field_ids, flat = table
        n = len(field_ids)
        values = np.array(flat, dtype=np.float64).reshape(n, n)
        if model_tag == "embedding":  # an embedding matrix is symmetric
            values = np.where(np.tri(n, k=-1, dtype=bool), values.T, values)
        phi = ProximityMatrix(values=values, field_ids=field_ids, model_tag=model_tag,
                              window=TimeWindow(start, start + span))
        path = tmp_path_factory.getbasetemp() / "phi.tsv"
        artifacts.save_proximity(phi, path, mhash="abc")
        loaded = artifacts.load_proximity(path)
        assert loaded.values.dtype == np.float64
        assert loaded.values.tobytes() == phi.values.tobytes()
        assert loaded.field_ids == field_ids
        assert loaded.model_tag == model_tag
        assert loaded.window == phi.window

    def test_asymmetric_embedding_matrix_names_its_first_row(self, tmp_path):
        values = np.full((3, 3), 0.5)
        values[2, 0] = 0.99  # phi[F003][F001]; only the intermediate level reads it
        phi = ProximityMatrix(values, ["F001", "F002", "F003"], "embedding",
                              TimeWindow(2000, 2004))
        path = tmp_path / "phi.tsv"
        artifacts.save_proximity(phi, path)
        with pytest.raises(ParseError, match="embedding row 'F001' differs from its "
                                             "column") as err:
            artifacts.load_proximity(path)
        assert err.value.line == 6  # 4 comment lines, the field header, F001
        phi.model_tag = "frequentist"
        artifacts.save_proximity(phi, path)
        assert artifacts.load_proximity(path).values[2, 0] == 0.99

    @given(ids.flatmap(lambda fids: st.tuples(
               st.just(fids), st.lists(st.lists(finite, min_size=3, max_size=3),
                                       min_size=len(fids), max_size=len(fids)))))
    @example((["F001"], [[-0.0, 5e-324, -1e308]]))
    @settings(max_examples=200, deadline=None)
    def test_embedding_rows_parse_back_bit_identical(self, tmp_path_factory, table):
        field_ids, rows = table
        vectors = np.array(rows, dtype=np.float64)
        path = tmp_path_factory.getbasetemp() / "embeddings.tsv"
        artifacts.save_embeddings(vectors, field_ids, path, mhash="abc")
        lines = [l for l in path.read_text(encoding="utf-8").splitlines()
                 if not l.startswith("#")]
        assert [l.split("\t")[0] for l in lines] == field_ids
        parsed = np.array([[float(v) for v in l.split("\t")[1:]] for l in lines])
        assert parsed.tobytes() == vectors.tobytes()


# Every float64, with the edge cases named: signed zeros, the smallest
# subnormal, the largest finite value, values that need all 17 digits, and
# the non-finite values the writers format but the loaders reject.
any_float = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
     0.30000000000000004, 1 / 3, 2 / 3, 1e23, float("inf"), float("nan")])


class TestWriterParity:
    """The writers that format a row at a time write the bytes of the
    per-value writers kept in ``oracles``."""

    @given(ids.flatmap(lambda fids: st.tuples(st.just(fids), st.lists(
               any_float, min_size=len(fids) ** 2, max_size=len(fids) ** 2))))
    @example((["F001"], [-0.0]))
    @example((["F001", "F002"], [5e-324, 1.7976931348623157e308, 0.1 + 0.2, -1e-310]))
    @settings(max_examples=200, deadline=None)
    def test_save_proximity(self, tmp_path_factory, table):
        field_ids, flat = table
        n = len(field_ids)
        phi = ProximityMatrix(np.array(flat, dtype=np.float64).reshape(n, n), field_ids,
                              "frequentist", TimeWindow(2000, 2012))
        base = tmp_path_factory.getbasetemp()
        artifacts.save_proximity(phi, base / "phi.tsv", mhash="abc")
        oracles.save_proximity_per_value(phi, base / "phi_oracle.tsv", mhash="abc")
        assert (base / "phi.tsv").read_bytes() == (base / "phi_oracle.tsv").read_bytes()

    @given(ids.flatmap(lambda fids: st.integers(1, 7).flatmap(lambda dim: st.tuples(
               st.just(fids), st.lists(st.lists(any_float, min_size=dim, max_size=dim),
                                       min_size=len(fids), max_size=len(fids))))))
    @example((["F001"], [[-0.0, 5e-324, 1.7976931348623157e308]]))
    @settings(max_examples=200, deadline=None)
    def test_save_embeddings(self, tmp_path_factory, table):
        field_ids, rows = table
        vectors = np.array(rows, dtype=np.float64)  # fields x dim, rarely square
        base = tmp_path_factory.getbasetemp()
        artifacts.save_embeddings(vectors, field_ids, base / "emb.tsv", mhash="abc")
        oracles.save_embeddings_per_value(vectors, field_ids, base / "emb_oracle.tsv",
                                          mhash="abc")
        assert (base / "emb.tsv").read_bytes() == (base / "emb_oracle.tsv").read_bytes()


# Values the codec must keep apart or write in full: signed zeros, subnormals,
# values near +-1e308 and values that need all 17 digits.
codec_edges = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308,
     1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2, 1 / 3])


@st.composite
def codec_tables(draw, square):
    """Field ids and a float64 table, square or fields x dim, each of whose
    rows repeats a few values or holds only distinct ones."""
    fids = draw(ids)
    n = len(fids)
    k = n if square else draw(st.integers(1, 7))
    pool = draw(st.lists(codec_edges | finite, min_size=1, max_size=4))
    repeated = st.lists(st.sampled_from(pool), min_size=k, max_size=k)
    distinct = st.lists(codec_edges | finite, min_size=k, max_size=k,
                        unique_by=lambda v: struct.pack("<d", v))
    rows = draw(st.lists(repeated | distinct, min_size=n, max_size=n))
    return fids, np.array(rows, dtype=np.float64)


def _with_tokens(*edits):
    """Put each (row, column, token) of ``edits`` into the lines of a saved
    phi.tsv: row 1 is the first field's row, column 0 its id."""
    def corrupt(lines):
        lines = list(lines)
        for row, col, token in edits:
            parts = lines[4 + row].split("\t")
            parts[col] = token
            lines[4 + row] = "\t".join(parts)
        return lines
    return corrupt


# Corruptions of values and ids of a saved 5-field phi.tsv, the line the
# error must name (row r is on line 5 + r) and the start of its message.
TOKEN_CORRUPTIONS = {
    "bad_token_recurs": (_with_tokens((2, 3, "0.5x"), (4, 1, "0.5x")), 7,
                         "invalid value"),
    "inf_beside_bad_token": (_with_tokens((3, 1, "inf"), (3, 4, "bogus")), 8,
                             "invalid value"),
    "bad_token_before_order_mismatch": (_with_tokens((3, 2, "x"), (5, 0, "F999")), 8,
                                        "invalid value"),
    "good_token_then_inf": (_with_tokens((1, 2, "0.5"), (2, 2, "inf")), 7,
                            "non-finite value"),
}


class TestCodecParity:
    """The codec that formats each distinct value once and parses each
    distinct token once, against the row-at-a-time writer and the per-token
    reader kept in ``oracles``."""

    @given(codec_tables(square=True))
    @example((["F001", "F002"], np.array([[0.0, -0.0], [-0.0, 0.0]])))
    @example((["F001", "F002", "F003"], np.array(
        [[5e-324, -5e-324, 5e-324], [1e308, -1e308, 1e308], [0.1, 0.2, 0.30000000000000004]])))
    @settings(max_examples=200, deadline=None)
    def test_proximity(self, tmp_path_factory, table):
        field_ids, values = table
        phi = ProximityMatrix(values, field_ids, "frequentist", TimeWindow(2000, 2012))
        path = tmp_path_factory.getbasetemp() / "codec_phi.tsv"
        artifacts.save_proximity(phi, path, mhash="abc")
        rows = path.read_text(encoding="utf-8").split("\n")[5:-1]
        assert rows == oracles.value_rows_per_row(field_ids, values)
        loaded = artifacts.load_proximity(path).values
        assert loaded.dtype == np.float64
        assert loaded.tobytes() == oracles.load_proximity_per_token(path).values.tobytes()
        assert loaded.tobytes() == values.tobytes()

    @given(codec_tables(square=False))
    @example((["F001"], np.array([[0.0, -0.0, 0.0, -0.0]])))
    @settings(max_examples=200, deadline=None)
    def test_embeddings(self, tmp_path_factory, table):
        field_ids, vectors = table
        path = tmp_path_factory.getbasetemp() / "codec_emb.tsv"
        artifacts.save_embeddings(vectors, field_ids, path, mhash="abc")
        rows = path.read_text(encoding="utf-8").split("\n")[2:-1]
        assert rows == oracles.value_rows_per_row(field_ids, vectors)

    @pytest.mark.parametrize("corruption", sorted(TOKEN_CORRUPTIONS))
    def test_corrupt_token(self, tmp_path, corruption):
        corrupt, line, message = TOKEN_CORRUPTIONS[corruption]
        values = np.array([0.5, 0.25, -0.0, 0.125, 0.5])[np.arange(25).reshape(5, 5) % 5]
        field_ids = [f"F00{i}" for i in range(1, 6)]
        path = tmp_path / "phi.tsv"
        artifacts.save_proximity(ProximityMatrix(values, field_ids, "frequentist",
                                                 TimeWindow(2000, 2004)), path)
        path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
        with pytest.raises(ParseError) as got:
            artifacts.load_proximity(path)
        with pytest.raises(ParseError) as want:
            oracles.load_proximity_per_token(path)
        assert (str(got.value), got.value.line) == (str(want.value), want.value.line)
        assert got.value.line == line
        assert str(got.value).startswith(message)

    @given(st.data())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_line_corruption(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "corrupt_phi.tsv"
        artifacts.save_proximity(data.draw(small_phis()), path, mhash="abc")
        path.write_text(data.draw(line_corruptions(path.read_text(encoding="utf-8"))),
                        encoding="utf-8")
        assert _outcome(artifacts.load_proximity, path) == _outcome(
            oracles.load_proximity_per_token, path)


def _outcome(load, path):
    """What ``load`` makes of the file: the ParseError's message and line, or
    the matrix's bytes, field ids, model tag and window."""
    try:
        phi = load(path)
    except ParseError as e:
        return str(e), e.line
    return phi.values.tobytes(), phi.field_ids, phi.model_tag, phi.window


@st.composite
def small_phis(draw):
    """A proximity matrix of either model over 1 to 4 fields."""
    model_tag = draw(st.sampled_from(["frequentist", "embedding"]))
    n = draw(st.integers(1, 4))
    values = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 1 / 3, 1.0]),
                                    min_size=n * n, max_size=n * n))).reshape(n, n)
    if model_tag == "embedding":
        values = np.where(np.tri(n, k=-1, dtype=bool), values.T, values)
    start = draw(st.integers(1990, 2010))
    return ProximityMatrix(values, [f"F{i:03d}" for i in range(1, n + 1)], model_tag,
                           TimeWindow(start, start + draw(st.integers(0, 5))))


@st.composite
def line_corruptions(draw, text):
    """``text``, a saved phi.tsv, with one line-level corruption: a line
    deleted, duplicated, blanked, swapped with the next, cut at or inside a
    token, a token made ``x``, ``nan`` or ``inf``, a header value edited, or
    the final newline dropped."""
    lines = text.split("\n")[:-1]
    kind = draw(st.sampled_from(["delete", "duplicate", "blank", "swap", "cut", "token",
                                 "header", "final_newline"]))
    if kind == "final_newline":
        return "\n".join(lines)
    i = draw(st.integers(0, len(lines) - (2 if kind == "swap" else 1)))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "blank":
        lines[i] = ""
    elif kind == "swap":
        lines[i:i + 2] = lines[i + 1], lines[i]
    elif kind == "cut":
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i]) - 1))]
    elif kind == "token":
        tokens = lines[i].split("\t")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
            st.sampled_from(["x", "nan", "inf"]))
        lines[i] = "\t".join(tokens)
    else:  # the value of one of the four "# key: value" lines
        i = draw(st.integers(0, 3))
        lines[i] = lines[i].partition(":")[0] + ": " + draw(st.sampled_from(
            ["", "x", "proximity/2", "frequentist", "embedding", "2000:1999",
             "2000:2004", " 1999 : 2001", "1:2:3"]))
    return "\n".join(lines) + "\n"


def _unserializable_corpus():
    corpus = make_corpus([("e", ("F001",), 1, 2000)])
    corpus.entity_ids = [object()]
    return corpus


def _phi(values):
    return ProximityMatrix(values=np.array(values, dtype=object),
                           field_ids=["F001", "F002"], model_tag="frequentist",
                           window=TimeWindow(2000, 2004))


# Each artifact writer, with arguments that fail to serialize after the
# first line.
FAILING_WRITES = {
    "save_corpus": lambda path: artifacts.save_corpus(_unserializable_corpus(), path),
    "save_proximity": lambda path: artifacts.save_proximity(
        _phi([[1.0, 0.5], [0.5, "x"]]), path),
    "save_embeddings": lambda path: artifacts.save_embeddings(
        [[0.1, 0.2], [0.3, "x"]], ["F001", "F002"], path),
    "write_manifest": lambda path: artifacts.write_manifest(
        {"command": "fit", "window": object()}, path),
}


@pytest.mark.parametrize("existing", [True, False])
@pytest.mark.parametrize("writer", sorted(FAILING_WRITES))
def test_failed_write_leaves_no_partial_file(tmp_path, writer, existing):
    path = tmp_path / "artifact"
    if existing:
        path.write_text("earlier artifact\n")
    with pytest.raises((TypeError, ValueError)):
        FAILING_WRITES[writer](path)
    assert sorted(p.name for p in tmp_path.iterdir()) == (["artifact"] if existing else [])
    if existing:
        assert path.read_text() == "earlier artifact\n"


def test_interrupted_write_leaves_no_partial_file(tmp_path, monkeypatch):
    path = tmp_path / "manifest.json"
    path.write_text("earlier artifact\n")
    write_text = type(path).write_text

    def write_half_then_fail(self, text, **kwargs):
        write_text(self, text[:len(text) // 2], **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(type(path), "write_text", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        artifacts.write_manifest({"command": "fit"}, path)
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
    assert path.read_text() == "earlier artifact\n"
