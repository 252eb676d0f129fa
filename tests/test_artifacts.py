import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_corpus
from research_space import artifacts
from research_space.corpus import EntityKind, MatchStats, ResolvedCorpus
from research_space.errors import ParseError
from research_space.freq_model import ProximityMatrix
from research_space.presence import TimeWindow

COLUMNS = ("entity", "field_set", "n_authors", "year")

entity_ids = st.text(min_size=1, max_size=8) | st.sampled_from(
    ['say "hi"', "São Paulo", "東京", "back\\slash", "new\nline"])
field_sets = st.lists(st.sampled_from(["F001", "F002", "F010", "Fé"]),
                      min_size=1, max_size=4)
rows = st.lists(st.tuples(entity_ids, field_sets, st.integers(1, 500),
                          st.integers(-2**31, 2**31)), max_size=30)
match_stats = st.builds(MatchStats, *(st.integers(0, 10**6) for _ in range(4)))


class TestCorpusArtifact:
    @given(rows, st.sampled_from(list(EntityKind)), match_stats)
    @example([], EntityKind.SCIENTIST, MatchStats())
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

    @given(rows)
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_columns_line_is_json_dumps_written_in_pieces(self, tmp_path, monkeypatch,
                                                          records):
        monkeypatch.setattr(artifacts, "PIECE_VALUES", 3)
        corpus = make_corpus(records)
        path = tmp_path / "corpus.jsonl"
        artifacts.save_corpus(corpus, path)
        columns = {name: getattr(corpus, name).tolist() for name in COLUMNS}
        assert path.read_text().splitlines()[3] == json.dumps(columns, sort_keys=True)

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
        # 165 B per record here; the columns line in pieces takes about 18 B
        assert peak / n < 40, f"{peak / n:.0f} B per record"

    def test_corpus_1_asks_for_ingest(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"schema": "corpus/1", "kind": "scientist"}) + "\n")
        with pytest.raises(ParseError, match="ingest") as err:
            artifacts.load_corpus(path)
        assert err.value.line == 1

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
