"""On-disk artifact formats: resolved corpora, proximity matrices, embeddings,
and run manifests. Artifacts carry schema-version headers and the manifest
hash so pipeline stages can be re-run independently."""

from __future__ import annotations

import base64
import json
import os
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import EntityKind, MatchStats, ResolvedCorpus
from .errors import ConfigError, ParseError, json_value, utf8_input
from .freq_model import ProximityMatrix
from .presence import TimeWindow

SCHEMA_CORPUS = "corpus/3"
SCHEMA_PROXIMITY = "proximity/1"
SCHEMA_EMBEDDING = "embedding/1"
MODEL_TAGS = ("frequentist", "embedding")

CORPUS_COLUMNS = ("entity", "field_set", "n_authors", "year")
# The dtypes a corpus column may be stored in, narrowest first.
COLUMN_DTYPES = ("|u1", "|i1", "<u2", "<i2", "<u4", "<i4", "<u8", "<i8")


def write_atomic(path, text):
    """Write ``text`` (a string, or strings) to a sibling temporary file, then
    rename it over ``path``, making its missing parent directories first: a
    failed write leaves no partial file and any earlier artifact unchanged,
    and its OSError names ``path``, not the temporary file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if isinstance(text, str):
            tmp.write_text(text, encoding="utf-8")
        else:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(text)
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError) and e.filename is not None:  # the OS's error
            raise type(e)(e.errno, e.strerror, str(path)) from None
        raise


def write_json(path, obj) -> str:
    """Write ``obj`` as indented JSON with sorted keys, atomically; return
    the text written."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    write_atomic(path, text)
    return text


def write_manifest(manifest: dict, path) -> str:
    """Write the manifest with its hash, the first 16 hex digits of the
    sha256 of its compact JSON, added; return the hash."""
    import hashlib  # only ingest and fit hash; the other commands skip its load

    canon = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    mhash = hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
    write_json(path, {**manifest, "manifest_hash": mhash})
    return mhash


def _column(values):
    """A record column as line 4 stores it: the base64 of its bytes in the
    narrowest of COLUMN_DTYPES that holds its minimum and maximum."""
    lo, hi = (int(values.min()), int(values.max())) if len(values) else (0, 0)
    dtype = next(d for d in COLUMN_DTYPES if np.iinfo(d).min <= lo <= hi
                 <= np.iinfo(d).max)
    return {"dtype": dtype,
            "data": base64.b64encode(values.astype(dtype).tobytes()).decode("ascii")}


def save_corpus(corpus: ResolvedCorpus, path, mhash=""):
    """Write the corpus as four JSON lines: header, entity ids, field sets,
    and the record columns in binary."""
    header = {
        "schema": SCHEMA_CORPUS,
        "kind": corpus.kind.value,
        "manifest_hash": mhash,
        "match_stats": vars(corpus.match_stats),
    }
    tables = (header, {"entity_ids": corpus.entity_ids},
              {"field_sets": [list(fields) for fields in corpus.field_sets]})
    columns = {name: _column(getattr(corpus, name)) for name in CORPUS_COLUMNS}
    # line 4 as json.dumps(..., sort_keys=True) writes it, a string at a time
    write_atomic(path, chain((json.dumps(obj, sort_keys=True) + "\n" for obj in tables),
                             json.JSONEncoder(sort_keys=True).iterencode(columns), "\n"))


def _corpus_line(fh, path, line_no, keys, what="lists",
                 valid=lambda v: type(v) is list):
    """The values under ``keys`` of the JSON object on the file's next line,
    which must hold exactly those keys, each ``valid``: one of ``what``."""
    text = fh.readline()
    if not text.strip():
        raise ParseError(f"missing the line of {', '.join(keys)}", path=path,
                         line=line_no)
    obj = json_value(text, path, line_no)
    if not (isinstance(obj, dict) and sorted(obj) == sorted(keys)
            and all(valid(obj[k]) for k in keys)):
        raise ParseError(f"expected a JSON object of the {what} {', '.join(keys)}",
                         path=path, line=line_no)
    return [obj[k] for k in keys]


def _is_field_set(fields):
    return type(fields) is list and len(fields) > 0 and set(map(type, fields)) <= {str}


@utf8_input
def load_corpus(path) -> ResolvedCorpus:
    """Read a corpus/3 file, validating each table and column once; the first
    bad entry is named by its index."""
    with open(path, encoding="utf-8") as fh:
        header = json_value(fh.readline(), path, 1)
        schema = header.get("schema") if isinstance(header, dict) else None
        if schema in ("corpus/1", "corpus/2"):
            raise ParseError(f"this is a {schema} file; run ingest again to write "
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

        stored = _corpus_line(fh, path, 4, CORPUS_COLUMNS, "{dtype, data} objects",
                              lambda v: type(v) is dict and sorted(v) == ["data", "dtype"])
        if fh.read().strip():
            raise ParseError("unexpected content after the columns line",
                             path=path, line=5)
    columns = {}  # each in its stored dtype until its range is checked
    for name, column in zip(CORPUS_COLUMNS, stored):
        if column["dtype"] not in COLUMN_DTYPES:
            raise ParseError(f"{name}: dtype {column['dtype']!r} is not one of "
                             f"{', '.join(COLUMN_DTYPES)}", path=path, line=4)
        try:  # data not a string, not strict base64 or ASCII, or a partial value
            data = base64.b64decode(column["data"], validate=True)
            columns[name] = np.frombuffer(data, column["dtype"])
        except (TypeError, ValueError) as e:
            raise ParseError(f"{name}: {e}", path=path, line=4) from None
    lengths = {name: len(values) for name, values in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ParseError(f"columns differ in length: {lengths}", path=path, line=4)
    for name, lo, hi in (("entity", 0, len(entity_ids)), ("field_set", 0, len(field_sets)),
                         ("n_authors", 1, 2**63), ("year", -2**63, 2**63)):
        values = columns[name]
        bad = (values < lo) | (values >= hi)  # a <u8 value may not fit int64
        if bad.any():
            i = np.argmax(bad)
            raise ParseError(f"{name} of record {i} is {values[i]}, outside [{lo}, {hi})",
                             path=path, line=4)
        columns[name] = values.astype(np.int64)
    return ResolvedCorpus(entity_ids, [tuple(fields) for fields in field_sets],
                          kind=kind, match_stats=stats, **columns)


def _value_rows(ids, values):
    """One TSV line per id: the id, then its row of ``values``, each as
    ``%.17g``, which reads back bit-identical. Each distinct value, told
    apart by its bits (so 0.0 and -0.0 stay two), is formatted once."""
    values = np.asarray(values).astype(np.float64, casting="same_kind", copy=False)
    bits, codes = np.unique(values.view(np.uint64), return_inverse=True)
    distinct = bits.view(np.float64).tolist()
    # one format over all distinct values; no formatted float holds a tab
    texts = np.array(("\t".join(["%.17g"] * len(distinct)) % tuple(distinct))
                     .split("\t"), dtype=object)
    return [fid + "\t" + "\t".join(texts[row].tolist())
            for fid, row in zip(ids, codes.reshape(values.shape))]


class _Floats(dict):
    """``float`` of each token, parsed when it is first looked up."""

    def __missing__(self, token):
        value = self[token] = float(token)
        return value


def save_proximity(phi: ProximityMatrix, path, mhash=""):
    lines = [
        f"# schema: {SCHEMA_PROXIMITY}",
        f"# model: {phi.model_tag}",
        f"# window: {phi.window}",
        f"# manifest_hash: {mhash}",
        "field_id\t" + "\t".join(phi.field_ids),
        *_value_rows(phi.field_ids, phi.values),
    ]
    write_atomic(path, "\n".join(lines) + "\n")


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
        parse = _Floats().__getitem__  # phi holds few distinct values
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
                values[i] = np.fromiter(map(parse, parts[1:]), np.float64, n)
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
    write_atomic(path, "\n".join(lines) + "\n")
