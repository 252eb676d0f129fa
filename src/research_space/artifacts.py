"""On-disk artifact formats: resolved corpora, proximity matrices, embeddings,
and run manifests. Artifacts carry schema-version headers and the manifest
hash so pipeline stages can be re-run independently."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .corpus import (EntityKind, MatchStats, ResolvedCorpus, ResolvedRecord,
                     _year_and_authors)
from .errors import ParseError
from .freq_model import ProximityMatrix
from .presence import TimeWindow

SCHEMA_CORPUS = "corpus/1"
SCHEMA_PROXIMITY = "proximity/1"
SCHEMA_EMBEDDING = "embedding/1"


def manifest_hash(manifest: dict) -> str:
    canon = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def write_manifest(manifest: dict, path):
    manifest = dict(manifest)
    manifest["manifest_hash"] = manifest_hash(
        {k: v for k, v in manifest.items() if k != "manifest_hash"}
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest["manifest_hash"]


def save_corpus(corpus: ResolvedCorpus, path, mhash=""):
    header = {
        "schema": SCHEMA_CORPUS,
        "kind": corpus.kind.value,
        "manifest_hash": mhash,
        "match_stats": vars(corpus.match_stats),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in corpus.records:
            fh.write(
                json.dumps(
                    {
                        "entity_id": rec.entity_id,
                        "field_ids": list(rec.field_ids),
                        "n_authors": rec.n_authors,
                        "year": rec.year,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def load_corpus(path) -> ResolvedCorpus:
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid corpus header: {e}", path=path, line=1)
        schema = header.get("schema") if isinstance(header, dict) else None
        if schema != SCHEMA_CORPUS:
            raise ParseError(f"unsupported corpus schema {schema!r}", path=path, line=1)
        try:
            kind = EntityKind(header["kind"])
            stats = MatchStats(**header.get("match_stats", {}))
        except KeyError as e:
            raise ParseError(f"corpus header lacks {e}", path=path, line=1)
        except (TypeError, ValueError) as e:
            raise ParseError(f"invalid corpus header: {e}", path=path, line=1)
        records = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                if not isinstance(raw, dict):
                    raise ValueError("record is not a JSON object")
                eid, fids = raw["entity_id"], raw["field_ids"]
                if not isinstance(eid, str):
                    raise ValueError(f"entity_id must be a string, got {eid!r}")
                if not (isinstance(fids, list) and fids
                        and all(isinstance(f, str) for f in fids)):
                    raise ValueError(
                        f"field_ids must be a non-empty list of strings, got {fids!r}"
                    )
                year, n_authors = _year_and_authors(raw)
                records.append(ResolvedRecord(eid, tuple(fids), n_authors, year))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
                raise ParseError(f"invalid corpus record: {e}", path=path, line=line_no)
    return ResolvedCorpus(records=records, kind=kind, match_stats=stats)


def save_proximity(phi: ProximityMatrix, path, mhash=""):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# schema: {SCHEMA_PROXIMITY}\n")
        fh.write(f"# model: {phi.model_tag}\n")
        fh.write(f"# window: {phi.window}\n")
        fh.write(f"# manifest_hash: {mhash}\n")
        fh.write("field_id\t" + "\t".join(phi.field_ids) + "\n")
        for i, fid in enumerate(phi.field_ids):
            row = "\t".join(f"{v:.17g}" for v in phi.values[i])
            fh.write(f"{fid}\t{row}\n")


def load_proximity(path) -> ProximityMatrix:
    meta = {}
    with open(path, encoding="utf-8") as fh:
        lines = enumerate(fh, start=1)
        line_no, line = next(lines, (1, ""))
        while line.startswith("#"):
            key, _, val = line[1:].partition(":")
            meta[key.strip()] = val.strip()
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
        field_ids = line.rstrip("\n").split("\t")[1:]
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
    return ProximityMatrix(
        values=values,
        field_ids=field_ids,
        model_tag=meta["model"],
        window=TimeWindow.parse(meta["window"]),
    )


def save_embeddings(vectors, field_ids, path, mhash=""):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# schema: {SCHEMA_EMBEDDING}\n")
        fh.write(f"# manifest_hash: {mhash}\n")
        for fid, vec in zip(field_ids, vectors):
            fh.write(fid + "\t" + "\t".join(f"{v:.17g}" for v in vec) + "\n")
