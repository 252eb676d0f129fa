"""Publication-record ingestion: taxonomy, venue->field map, venue matching,
and aggregation of records into scientist / institution / state entities."""

from __future__ import annotations

import csv
import enum
import json
import re
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError, utf8_input

SPLIT_CHARS = ".;:/-"
_SPLIT_RE = re.compile("[" + re.escape(SPLIT_CHARS) + "]")
_WS_RE = re.compile(r"\s+")


class EntityKind(enum.Enum):
    SCIENTIST = "scientist"
    INSTITUTION = "institution"
    STATE = "state"


@dataclass(frozen=True)
class TaxonomyField:
    field_id: str
    name: str
    intermediate_id: str
    macro_id: str


@dataclass(frozen=True)
class Intermediate:
    intermediate_id: str
    acronym: str
    macro_id: str


class FieldTaxonomy:
    """3-level field hierarchy: field -> intermediate -> macro area.

    Field order is fixed at load time and defines the column order of every
    matrix downstream.
    """

    def __init__(self, fields, intermediates, macros):
        self.fields = list(fields)
        self.intermediates = dict(intermediates)  # id -> Intermediate
        self.macros = dict(macros)  # id -> name
        self.field_ids = [f.field_id for f in self.fields]
        if len(set(self.field_ids)) != len(self.field_ids):
            raise ConfigError("duplicate field_id in taxonomy")
        self.field_index = {fid: i for i, fid in enumerate(self.field_ids)}
        self._by_id = {f.field_id: f for f in self.fields}
        for f in self.fields:
            if f.intermediate_id not in self.intermediates:
                raise ConfigError(
                    f"field {f.field_id} references unknown intermediate {f.intermediate_id}"
                )
        for im in self.intermediates.values():
            if im.macro_id not in self.macros:
                raise ConfigError(
                    f"intermediate {im.intermediate_id} references unknown macro {im.macro_id}"
                )

    def __len__(self):
        return len(self.fields)

    def field(self, field_id) -> TaxonomyField:
        return self._by_id[field_id]

    def intermediate_of(self, field_id) -> str:
        return self._by_id[field_id].intermediate_id

    @classmethod
    @utf8_input
    def from_file(cls, path):
        """Load from delimited text with columns field_id, field_name,
        intermediate_id, intermediate_acronym, macro_id, macro_name."""
        fields = []
        intermediates = {}
        macros = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh, delimiter="\t")
            required = {
                "field_id", "field_name", "intermediate_id",
                "intermediate_acronym", "macro_id", "macro_name",
            }
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ParseError(
                    f"taxonomy file must have columns {sorted(required)}", path=path
                )
            for i, row in enumerate(reader, start=2):
                fields.append(
                    TaxonomyField(
                        row["field_id"], row["field_name"],
                        row["intermediate_id"], row["macro_id"],
                    )
                )
                intermediates[row["intermediate_id"]] = Intermediate(
                    row["intermediate_id"], row["intermediate_acronym"], row["macro_id"]
                )
                macros[row["macro_id"]] = row["macro_name"]
        if not fields:
            raise ParseError("taxonomy file has no rows", path=path)
        return cls(fields, intermediates, macros)


def normalize_venue(name: str) -> str:
    """Case-fold, trim, and collapse internal whitespace."""
    return _WS_RE.sub(" ", name.strip()).casefold()


def venue_substrings(name: str) -> list[str]:
    """Full name first, then the pieces obtained by splitting at any of
    ``. ; : / -`` in left-to-right order, trimmed, empties removed."""
    parts = [p.strip() for p in _SPLIT_RE.split(name)]
    return [name] + [p for p in parts if p and p != name]


class VenueFieldMap:
    """Normalized venue name -> non-empty set of field ids."""

    def __init__(self, entries: dict[str, frozenset[str]]):
        self.entries = {normalize_venue(k): frozenset(v) for k, v in entries.items()}
        for k, v in self.entries.items():
            if not v:
                raise ConfigError(f"venue {k!r} maps to an empty field set")

    def validate_against(self, taxonomy: FieldTaxonomy):
        known = set(taxonomy.field_ids)
        for venue, fids in self.entries.items():
            unknown = fids - known
            if unknown:
                raise ConfigError(
                    f"venue {venue!r} references unknown field ids {sorted(unknown)}"
                )

    @classmethod
    @utf8_input
    def from_file(cls, path):
        """Load from delimited text, columns venue_name, field_id (one row
        per venue-field pair)."""
        entries: dict[str, set[str]] = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh, delimiter="\t")
            if reader.fieldnames is None or not {"venue_name", "field_id"}.issubset(
                reader.fieldnames
            ):
                raise ParseError(
                    "venue map file must have columns venue_name, field_id", path=path
                )
            for row in reader:
                entries.setdefault(normalize_venue(row["venue_name"]), set()).add(
                    row["field_id"]
                )
        return cls({k: frozenset(v) for k, v in entries.items()})


def match_venue(name: str, vmap: VenueFieldMap):
    """Exact match on the full normalized name, else the first substring with
    an exact hit (flagged approximate), else None."""
    for i, sub in enumerate(venue_substrings(name)):
        hit = vmap.entries.get(normalize_venue(sub))
        if hit is not None:
            return hit, "approximate" if i else "exact"
    return None




# --- record loading and aggregation ----------------------------------------

_MANDATORY = ("researcher_id", "venue", "year", "n_authors")
_TEXT_KEYS = ("researcher_id", "venue", "institution", "state")
YEAR_RANGE = (1900, 2100)

# The record key that names an entity of each kind.
_ENTITY_KEY = {
    EntityKind.SCIENTIST: "researcher_id",
    EntityKind.INSTITUTION: "institution",
    EntityKind.STATE: "state",
}

# Column-name aliases per format profile. The "zenodo" profile is a csv
# profile with alternative header spellings used by the public dataset dump.
FORMAT_PROFILES = {
    "jsonl": None,
    "csv": {"delimiter": ",", "aliases": {}},
    "tsv": {"delimiter": "\t", "aliases": {}},
    "zenodo": {
        "delimiter": ",",
        "aliases": {
            "researcher_id": ["researcher_id", "lattes_id", "id"],
            "venue": ["venue", "venue_name", "journal"],
            "year": ["year", "publication_year"],
            "n_authors": ["n_authors", "num_authors", "authors"],
            "institution": ["institution", "institution_name", "workplace"],
            "state": ["state", "uf", "state_code"],
        },
    },
}


def _rows(path, fmt):
    """Yield (line number, row) for each record of the file: the decoded
    value of a non-blank JSONL line, or a delimited row as a dict of
    canonical keys."""
    if fmt == "jsonl":
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    raw = json.loads(line)
                except ValueError as e:  # JSONDecodeError, or an integer too long
                    raise ParseError(f"invalid JSON: {e}", path=path, line=line_no)
                yield line_no, raw
        return

    profile = FORMAT_PROFILES[fmt]
    aliases = profile["aliases"]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter=profile["delimiter"])
        if reader.fieldnames is None:
            raise ParseError("empty records file", path=path)
        colmap = {}
        for canonical in _MANDATORY + ("institution", "state"):
            for cand in aliases.get(canonical, [canonical]):
                if cand in reader.fieldnames:
                    colmap[canonical] = cand
                    break
        missing = [k for k in _MANDATORY if k not in colmap]
        if missing:
            raise ParseError(f"missing required columns {missing}", path=path)
        for line_no, row in enumerate(reader, start=2):
            yield line_no, {k: row.get(src) for k, src in colmap.items()}


def _text(raw: dict, key: str) -> str | None:
    """``raw[key]`` as a string, None when absent or empty; strings and
    integers are accepted, any other value is not."""
    value = raw.get(key)
    if value is None or value == "":
        return None
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise ValueError(f"{key} must be a string or an integer, got {value!r}")


def _validate_record(raw) -> tuple[dict[str, str | None], int, int]:
    """A row's ``_TEXT_KEYS`` values, year and n_authors; a ValueError or
    TypeError says why the row is invalid. ``year`` and ``n_authors`` (>= 1)
    must be integral: booleans and non-integral floats are rejected,
    integral floats and numeric strings are converted."""
    if not isinstance(raw, dict):
        raise ValueError(f"record must be a JSON object, got {type(raw).__name__}")
    for key in _MANDATORY:
        if raw.get(key) in (None, ""):
            raise ValueError(f"missing mandatory field {key!r}")
    for key in ("year", "n_authors"):
        value = raw[key]
        if isinstance(value, bool) or (isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError(f"{key} must be an integer, got {value!r}")
    year = int(raw["year"])
    n_authors = int(raw["n_authors"])
    if n_authors < 1:
        raise ValueError(f"n_authors must be >= 1, got {n_authors}")
    lo, hi = YEAR_RANGE
    if not lo <= year <= hi:
        raise ValueError(f"year {year} outside sane range [{lo}, {hi}]")
    return {key: _text(raw, key) for key in _TEXT_KEYS}, year, n_authors


@dataclass
class MatchStats:
    exact: int = 0
    approximate: int = 0
    unmatched: int = 0
    missing_attribute: int = 0  # matched but lacking institution/state

    @property
    def total(self):
        return self.exact + self.approximate + self.unmatched


@dataclass(eq=False)  # array fields have no single truth value to compare by
class ResolvedCorpus:
    """Resolved records as columns. Record i is by entity
    ``entity_ids[entity[i]]``, in the venue fields ``field_sets[field_set[i]]``,
    with ``n_authors[i]`` authors, in ``year[i]``; the four are int64 arrays
    in record order."""

    entity_ids: list[str]  # distinct, in first-seen order
    field_sets: list[tuple[str, ...]]  # distinct venue field-id tuples
    entity: np.ndarray
    field_set: np.ndarray
    n_authors: np.ndarray
    year: np.ndarray
    kind: EntityKind
    match_stats: MatchStats

    def __len__(self):
        return len(self.entity)


@utf8_input
def resolve_corpus(path, vmap: VenueFieldMap, taxonomy: FieldTaxonomy,
                   kind: EntityKind, fmt="jsonl"):
    """Read, validate, venue-match and aggregate the records of ``path`` into
    entities of the given kind, in one pass; return the corpus and the
    invalid rows as (line, message) pairs.

    Invalid rows are reported per line, never silently dropped. Unmatched
    venues and (for institution/state) records missing that attribute are
    excluded and counted, never imputed.
    """
    if fmt not in FORMAT_PROFILES:
        raise ConfigError(f"unknown record format {fmt!r}")
    vmap.validate_against(taxonomy)
    key = _ENTITY_KEY[kind]
    stats = Counter()  # MatchStats field -> count
    issues = []
    entity_code: dict[str, int] = {}
    set_code: dict[tuple[str, ...], int] = {}
    hits = {}  # raw venue name -> (field-set code or None, MatchStats field)
    columns = entity, field_set, n_authors, year = [array("q") for _ in range(4)]
    for line_no, raw in _rows(path, fmt):
        try:
            text, rec_year, rec_n_authors = _validate_record(raw)
        except (ValueError, TypeError) as e:
            issues.append((line_no, str(e)))
            continue
        venue = text["venue"]
        if venue not in hits:
            hit = match_venue(venue, vmap)
            hits[venue] = (None, "unmatched") if hit is None else (
                set_code.setdefault(tuple(sorted(hit[0])), len(set_code)), hit[1])
        code, outcome = hits[venue]
        stats[outcome] += 1
        if code is None:
            continue
        eid = text[key]
        if eid is None:
            stats["missing_attribute"] += 1
            continue
        entity.append(entity_code.setdefault(eid, len(entity_code)))
        field_set.append(code)
        n_authors.append(rec_n_authors)
        year.append(rec_year)
    return ResolvedCorpus(
        list(entity_code), list(set_code),
        *(np.frombuffer(c, dtype=np.int64) for c in columns), kind,
        MatchStats(**stats),
    ), issues
