"""On-disk artifact formats: resolved corpora, proximity matrices, embeddings,
and run manifests. Artifacts carry schema-version headers and the manifest
hash so pipeline stages can be re-run independently."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .corpus import EntityKind, MatchStats, ResolvedCorpus
from .errors import ConfigError, ParseError, utf8_input
from .freq_model import ProximityMatrix
from .presence import TimeWindow

SCHEMA_CORPUS = "corpus/2"
SCHEMA_PROXIMITY = "proximity/1"
SCHEMA_EMBEDDING = "embedding/1"
MODEL_TAGS = ("frequentist", "embedding")

CORPUS_COLUMNS = ("entity", "field_set", "n_authors", "year")
PIECE_VALUES = 8192  # column values turned into text at a time by save_corpus


def _write_atomic(path, text):
    """Write ``text`` (a string, or strings) to a sibling temporary file, then
    rename it over ``path``: a failed write leaves no partial file and any
    earlier artifact unchanged."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if isinstance(text, str):
            tmp.write_text(text, encoding="utf-8")
        else:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def manifest_hash(manifest: dict) -> str:
    canon = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def write_manifest(manifest: dict, path):
    manifest = dict(manifest)
    manifest["manifest_hash"] = manifest_hash(
        {k: v for k, v in manifest.items() if k != "manifest_hash"}
    )
    _write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest["manifest_hash"]


def save_corpus(corpus: ResolvedCorpus, path, mhash=""):
    """Write the corpus as four JSON lines: header, entity ids, field sets,
    and the record columns, whose text is made PIECE_VALUES values at a time."""
    header = {
        "schema": SCHEMA_CORPUS,
        "kind": corpus.kind.value,
        "manifest_hash": mhash,
        "match_stats": vars(corpus.match_stats),
    }

    def text():
        for obj in (header, {"entity_ids": corpus.entity_ids},
                    {"field_sets": [list(fields) for fields in corpus.field_sets]}):
            yield json.dumps(obj, sort_keys=True) + "\n"
        # the columns line as json.dumps(..., sort_keys=True) writes it
        for k, name in enumerate(CORPUS_COLUMNS):  # already in sorted order
            values = getattr(corpus, name)
            yield ('{"' if k == 0 else '], "') + name + '": ['
            for start in range(0, len(values), PIECE_VALUES):
                piece = values[start:start + PIECE_VALUES].tolist()
                yield ", " * (start > 0) + ", ".join(map(str, piece))
        yield "]}\n"

    _write_atomic(path, text())


def _corpus_line(fh, path, line_no, keys):
    """The lists under ``keys`` of the JSON object on the file's next line,
    which must hold exactly those keys."""
    text = fh.readline()
    if not text.strip():
        raise ParseError(f"missing the line of {', '.join(keys)}", path=path,
                         line=line_no)
    try:
        obj = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer too long to convert
        raise ParseError(f"invalid JSON: {e}", path=path, line=line_no)
    except RecursionError:
        raise ParseError("invalid JSON: nesting too deep", path=path, line=line_no)
    if not (isinstance(obj, dict) and sorted(obj) == sorted(keys)
            and all(isinstance(obj[k], list) for k in keys)):
        raise ParseError(f"expected a JSON object of the lists {', '.join(keys)}",
                         path=path, line=line_no)
    return [obj[k] for k in keys]


def _is_field_set(fields):
    return type(fields) is list and len(fields) > 0 and set(map(type, fields)) <= {str}


@utf8_input
def load_corpus(path) -> ResolvedCorpus:
    """Read a corpus/2 file, validating each table and column once; the first
    bad entry is named by its index."""
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except ValueError as e:  # JSONDecodeError, or an integer too long to convert
            raise ParseError(f"invalid corpus header: {e}", path=path, line=1)
        except RecursionError:
            raise ParseError("invalid JSON: nesting too deep", path=path, line=1)
        schema = header.get("schema") if isinstance(header, dict) else None
        if schema == "corpus/1":
            raise ParseError(f"this is a corpus/1 file; run ingest again to write "
                             f"{SCHEMA_CORPUS}", path=path, line=1)
        if schema != SCHEMA_CORPUS:
            raise ParseError(f"unsupported corpus schema {schema!r}", path=path, line=1)
        try:
            kind = EntityKind(header["kind"])
            stats = MatchStats(**header.get("match_stats", {}))
        except KeyError as e:
            raise ParseError(f"corpus header lacks {e}", path=path, line=1)
        except (TypeError, ValueError) as e:
            raise ParseError(f"invalid corpus header: {e}", path=path, line=1)

        (entity_ids,) = _corpus_line(fh, path, 2, ("entity_ids",))
        if set(map(type, entity_ids)) - {str}:
            i = next(i for i, e in enumerate(entity_ids) if type(e) is not str)
            raise ParseError(f"entity id {i} is {entity_ids[i]!r}, not a string",
                             path=path, line=2)
        if len(set(entity_ids)) < len(entity_ids):
            _, first = np.unique(entity_ids, return_index=True)
            i = np.setdiff1d(np.arange(len(entity_ids)), first)[0]
            raise ParseError(f"entity id {i} repeats {entity_ids[i]!r}",
                             path=path, line=2)

        (field_sets,) = _corpus_line(fh, path, 3, ("field_sets",))
        if not all(map(_is_field_set, field_sets)):
            i = next(i for i, f in enumerate(field_sets) if not _is_field_set(f))
            raise ParseError(f"field set {i} is {field_sets[i]!r}, not a non-empty "
                             "list of strings", path=path, line=3)

        columns = dict(zip(CORPUS_COLUMNS, _corpus_line(fh, path, 4, CORPUS_COLUMNS)))
        if fh.read().strip():
            raise ParseError("unexpected content after the columns line",
                             path=path, line=5)
    for name, values in columns.items():
        if set(map(type, values)) - {int}:
            i = next(i for i, v in enumerate(values) if type(v) is not int)
            raise ParseError(f"{name} of record {i} is {values[i]!r}, not an integer",
                             path=path, line=4)
        try:
            columns[name] = np.array(values, dtype=np.int64)
        except OverflowError:
            i = next(i for i, v in enumerate(values) if not -2**63 <= v < 2**63)
            raise ParseError(f"{name} of record {i} is out of range", path=path, line=4)
    lengths = {name: len(values) for name, values in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ParseError(f"columns differ in length: {lengths}", path=path, line=4)
    for name, lo, hi in (("entity", 0, len(entity_ids)),
                         ("field_set", 0, len(field_sets)), ("n_authors", 1, None)):
        values = columns[name]
        bad = values < lo if hi is None else (values < lo) | (values >= hi)
        if bad.any():
            i = np.argmax(bad)
            bound = f"below {lo}" if hi is None else f"outside [{lo}, {hi})"
            raise ParseError(f"{name} of record {i} is {values[i]}, {bound}",
                             path=path, line=4)
    return ResolvedCorpus(entity_ids, [tuple(fields) for fields in field_sets],
                          kind=kind, match_stats=stats, **columns)


def _value_rows(ids, values):
    """One TSV line per id: the id, then its row of ``values``, each as
    ``%.17g``, which reads back bit-identical; one format per row."""
    values = np.asarray(values)
    form = "%s\t" + "\t".join(["%.17g"] * values.shape[-1])
    return [form % (fid, *row.tolist()) for fid, row in zip(ids, values)]


def save_proximity(phi: ProximityMatrix, path, mhash=""):
    lines = [
        f"# schema: {SCHEMA_PROXIMITY}",
        f"# model: {phi.model_tag}",
        f"# window: {phi.window}",
        f"# manifest_hash: {mhash}",
        "field_id\t" + "\t".join(phi.field_ids),
        *_value_rows(phi.field_ids, phi.values),
    ]
    _write_atomic(path, "\n".join(lines) + "\n")


@utf8_input
def load_proximity(path) -> ProximityMatrix:
    meta, meta_line = {}, {}
    with open(path, encoding="utf-8") as fh:
        lines = enumerate(fh, start=1)
        line_no, line = next(lines, (1, ""))
        while line.startswith("#"):
            key, _, val = line[1:].partition(":")
            meta[key.strip()] = val.strip()
            meta_line[key.strip()] = line_no
            line_no, line = next(lines, (line_no + 1, ""))
        if meta.get("schema") != SCHEMA_PROXIMITY:
            raise ParseError(
                f"unsupported proximity schema {meta.get('schema')!r}", path=path
            )
        missing = [key for key in ("model", "window") if key not in meta]
        if missing:
            raise ParseError(
                f"missing header {', '.join(missing)}", path=path, line=line_no
            )
        if meta["model"] not in MODEL_TAGS:
            raise ParseError(f"unknown model {meta['model']!r}", path=path,
                             line=meta_line["model"])
        try:
            window = TimeWindow.parse(meta["window"])
        except ConfigError as e:
            raise ParseError(str(e), path=path, line=meta_line["window"])
        if not line.startswith("field_id\t"):
            raise ParseError("expected the field_id header row", path=path, line=line_no)
        field_ids = line.rstrip("\n").split("\t")[1:]
        first_row = line_no + 1
        n = len(field_ids)
        values = np.zeros((n, n))
        i = 0
        for line_no, row_line in lines:
            parts = row_line.rstrip("\n").split("\t")
            if i == n:
                raise ParseError(f"more than {n} rows", path=path, line=line_no)
            if parts[0] != field_ids[i]:
                raise ParseError(
                    f"row order mismatch at {parts[0]!r}", path=path, line=line_no
                )
            if len(parts) != n + 1:
                raise ParseError(f"expected {n} values, got {len(parts) - 1}",
                                 path=path, line=line_no)
            try:
                values[i] = [float(v) for v in parts[1:]]
            except ValueError as e:
                raise ParseError(f"invalid value: {e}", path=path, line=line_no)
            if not np.isfinite(values[i]).all():
                raise ParseError("non-finite value", path=path, line=line_no)
            i += 1
    if i < n:
        raise ParseError(f"{n - i} of {n} rows missing", path=path, line=line_no + 1)
    if meta["model"] == "embedding":
        differs = (values != values.T).any(axis=1)
        if differs.any():
            i = int(differs.argmax())
            raise ParseError(f"embedding row {field_ids[i]!r} differs from its column",
                             path=path, line=first_row + i)
    return ProximityMatrix(
        values=values,
        field_ids=field_ids,
        model_tag=meta["model"],
        window=window,
    )


def save_embeddings(vectors, field_ids, path, mhash=""):
    lines = [f"# schema: {SCHEMA_EMBEDDING}", f"# manifest_hash: {mhash}",
             *_value_rows(field_ids, vectors)]
    _write_atomic(path, "\n".join(lines) + "\n")
