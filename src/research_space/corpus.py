"""Publication-record ingestion: taxonomy, venue->field map, venue matching,
and aggregation of records into scientist / institution / state entities."""

from __future__ import annotations

import csv
import enum
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError, utf8_input

SPLIT_CHARS = ".;:/-"
_SPLIT_RE = re.compile("[" + re.escape(SPLIT_CHARS) + "]")
_WS_RE = re.compile(r"\s+")

DEFAULT_YEAR_RANGE = (1900, 2100)


class EntityKind(enum.Enum):
    SCIENTIST = "scientist"
    INSTITUTION = "institution"
    STATE = "state"


@dataclass(frozen=True)
class PublicationRecord:
    """One (researcher, venue, year, author-count) entry; the ingestion atom."""

    researcher_id: str
    venue_name: str
    year: int
    n_authors: int
    institution: str | None = None
    state: str | None = None


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

    def __len__(self):
        return len(self.entries)

    def lookup(self, normalized_name):
        return self.entries.get(normalized_name)

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
    subs = venue_substrings(name)
    hit = vmap.lookup(normalize_venue(subs[0]))
    if hit is not None:
        return hit, "exact"
    for sub in subs[1:]:
        hit = vmap.lookup(normalize_venue(sub))
        if hit is not None:
            return hit, "approximate"
    return None


# --- record loading -------------------------------------------------------

_MANDATORY = ("researcher_id", "venue", "year", "n_authors")

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


@dataclass
class LoadReport:
    records: list[PublicationRecord] = field(default_factory=list)
    issues: list[tuple[int, str]] = field(default_factory=list)  # (line, message)


def _year_and_authors(raw: dict) -> tuple[int, int]:
    """A record's integral ``year`` and ``n_authors`` (>= 1); booleans and
    non-integral floats are rejected, integral floats and numeric strings
    are converted."""
    for key in ("year", "n_authors"):
        value = raw[key]
        if isinstance(value, bool) or (isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError(f"{key} must be an integer, got {value!r}")
    year = int(raw["year"])
    n_authors = int(raw["n_authors"])
    if n_authors < 1:
        raise ValueError(f"n_authors must be >= 1, got {n_authors}")
    return year, n_authors


def _validate_record(raw: dict, line: int, year_range) -> PublicationRecord:
    for key in _MANDATORY:
        if raw.get(key) in (None, ""):
            raise ValueError(f"missing mandatory field {key!r}")
    year, n_authors = _year_and_authors(raw)
    lo, hi = year_range
    if not lo <= year <= hi:
        raise ValueError(f"year {year} outside sane range [{lo}, {hi}]")
    inst = raw.get("institution") or None
    state = raw.get("state") or None
    return PublicationRecord(
        researcher_id=str(raw["researcher_id"]),
        venue_name=str(raw["venue"]),
        year=year,
        n_authors=n_authors,
        institution=inst,
        state=state,
    )


@utf8_input
def load_records(path, fmt="jsonl", year_range=DEFAULT_YEAR_RANGE) -> LoadReport:
    """Load publication records; invalid rows are reported per line, never
    silently dropped."""
    if fmt not in FORMAT_PROFILES:
        raise ConfigError(f"unknown record format {fmt!r}")
    report = LoadReport()
    if fmt == "jsonl":
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError as e:
                    raise ParseError(f"invalid JSON: {e}", path=path, line=line_no)
                try:
                    report.records.append(_validate_record(raw, line_no, year_range))
                except (ValueError, TypeError) as e:
                    report.issues.append((line_no, str(e)))
        return report

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
            raw = {k: row.get(src) for k, src in colmap.items()}
            try:
                report.records.append(_validate_record(raw, line_no, year_range))
            except (ValueError, TypeError) as e:
                report.issues.append((line_no, str(e)))
    return report


# --- aggregation ----------------------------------------------------------

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


def _entity_id(rec: PublicationRecord, kind: EntityKind):
    if kind is EntityKind.SCIENTIST:
        return rec.researcher_id
    if kind is EntityKind.INSTITUTION:
        return rec.institution
    return rec.state


def resolve_corpus(records, vmap: VenueFieldMap, taxonomy: FieldTaxonomy,
                   kind: EntityKind) -> ResolvedCorpus:
    """Match venues and aggregate records into entities of the given kind.

    Unmatched venues and (for institution/state) records missing that
    attribute are excluded and counted, never imputed.
    """
    vmap.validate_against(taxonomy)
    stats = MatchStats()
    entity_code: dict[str, int] = {}
    set_code: dict[tuple[str, ...], int] = {}
    hits = {}  # raw venue name -> (field-set code, match kind) or None
    entity, field_set, n_authors, year = [], [], [], []
    for rec in records:
        if rec.venue_name not in hits:
            hit = match_venue(rec.venue_name, vmap)
            hits[rec.venue_name] = (None if hit is None else (
                set_code.setdefault(tuple(sorted(hit[0])), len(set_code)), hit[1]))
        hit = hits[rec.venue_name]
        if hit is None:
            stats.unmatched += 1
            continue
        code, match_kind = hit
        if match_kind == "exact":
            stats.exact += 1
        else:
            stats.approximate += 1
        eid = _entity_id(rec, kind)
        if eid is None:
            stats.missing_attribute += 1
            continue
        entity.append(entity_code.setdefault(eid, len(entity_code)))
        field_set.append(code)
        n_authors.append(rec.n_authors)
        year.append(rec.year)
    return ResolvedCorpus(
        list(entity_code), list(set_code),
        *(np.array(c, dtype=np.int64) for c in (entity, field_set, n_authors, year)),
        kind, stats,
    )
