import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_corpus
from research_space import artifacts
from research_space.corpus import EntityKind, MatchStats
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
