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
from itertools import compress, count, filterfalse, islice, repeat
from operator import attrgetter, itemgetter, not_

import numpy as np

from .errors import ConfigError, ParseError, json_value, utf8_input

SPLIT_CHARS = ".;:/-"
_SPLIT_RE = re.compile("[" + re.escape(SPLIT_CHARS) + "]")


class EntityKind(enum.Enum):
    SCIENTIST = "scientist"
    INSTITUTION = "institution"
    STATE = "state"


@dataclass(frozen=True)
class TaxonomyField:
    field_id: str
    name: str
    intermediate_id: str


@dataclass(frozen=True)
class Intermediate:
    acronym: str
    macro_id: str


def _tsv_rows(path, what, columns):
    """(line, cells) of each row of the tab-separated ``what`` file: its line
    number and its cells under ``columns``, which the header must name."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter="\t")
        try:
            if not set(columns).issubset(reader.fieldnames or ()):
                raise ParseError(f"{what} file must have columns {', '.join(columns)}",
                                 path=path)
            for row in reader:
                cells = [row.get(name) for name in columns]
                if None in cells:
                    raise ParseError("row has fewer cells than the header", path=path,
                                     line=reader.line_num)
                yield reader.line_num, cells
        except csv.Error as e:  # the DictReader's line_num lags behind its reader's
            raise ParseError(f"malformed {what} file: {e}", path=path,
                             line=reader.reader.line_num) from None


class FieldTaxonomy:
    """3-level field hierarchy: field -> intermediate -> macro area.

    Fields, intermediates and macro areas are held in ascending id order,
    whatever order they come in: the column order of every matrix downstream.
    Each field's intermediate and each intermediate's macro area are among
    them, as ``from_file`` builds all three from the same rows.
    """

    def __init__(self, fields, intermediates, macros):
        self.fields = sorted(fields, key=attrgetter("field_id"))
        self.intermediates = dict(sorted(intermediates.items()))  # id -> Intermediate
        self.macros = dict(sorted(macros.items()))  # id -> name
        self.field_ids = [f.field_id for f in self.fields]
        self.field_index = {fid: i for i, fid in enumerate(self.field_ids)}

    def __len__(self):
        return len(self.fields)

    def field(self, field_id) -> TaxonomyField:
        return self.fields[self.field_index[field_id]]

    @classmethod
    @utf8_input
    def from_file(cls, path):
        """Load from delimited text with columns field_id, field_name,
        intermediate_id, intermediate_acronym, macro_id, macro_name. The first
        four go into TSV rows and GraphML, so a tab, LF or CR and XML 1.0's
        forbidden characters are rejected, as is a row that repeats a field_id
        or contradicts an earlier row on an intermediate or a macro area."""
        fields, intermediates, macros = {}, {}, {}
        for line, (fid, name, iid, acronym, mid, macro) in _tsv_rows(path, "taxonomy", (
                "field_id", "field_name", "intermediate_id", "intermediate_acronym",
                "macro_id", "macro_name")):
            bad = re.search("[\x00-\x1f\ufffe\uffff]", "".join((fid, name, iid, acronym)))
            if bad:
                why = "a TSV cell cannot hold" if bad[0] in "\t\n\r" else "XML 1.0 forbids"
                raise ParseError(f"taxonomy text holds {bad[0]!r}, which {why}",
                                 path=path, line=line)
            if fid in fields:
                raise ParseError(f"field {fid} repeats an earlier row's field_id",
                                 path=path, line=line)
            fields[fid] = TaxonomyField(fid, name, iid)
            im = Intermediate(acronym, mid)
            if (old := intermediates.setdefault(iid, im)) != im:
                raise ParseError(f"intermediate {iid} is {acronym!r} in {mid}, but an "
                                 f"earlier row has {old.acronym!r} in {old.macro_id}",
                                 path=path, line=line)
            if (old := macros.setdefault(mid, macro)) != macro:
                raise ParseError(f"macro area {mid} is named {macro!r}, but an earlier "
                                 f"row names it {old!r}", path=path, line=line)
        if not fields:
            raise ParseError("taxonomy file has no rows", path=path)
        return cls(fields.values(), intermediates, macros)


def normalize_venue(name: str) -> str:
    """Case-fold, trim, and collapse internal whitespace."""
    return " ".join(name.split()).casefold()


class VenueFieldMap:
    """Normalized venue name -> non-empty tuple of field ids in ascending
    order; names that normalize alike pool their field ids."""

    def __init__(self, entries: dict[str, frozenset[str]]):
        pooled: dict[str, set[str]] = {}
        for name, fids in entries.items():
            if not fids:
                raise ConfigError(f"venue {name!r} maps to an empty field set")
            pooled.setdefault(normalize_venue(name), set()).update(fids)
        self.entries = {key: tuple(sorted(fids)) for key, fids in pooled.items()}

    def validate_against(self, taxonomy: FieldTaxonomy):
        known = set(taxonomy.field_ids)
        for venue, fids in self.entries.items():
            unknown = [fid for fid in fids if fid not in known]
            if unknown:
                raise ConfigError(
                    f"venue {venue!r} references unknown field ids {unknown}")

    @classmethod
    @utf8_input
    def from_file(cls, path):
        """Load from delimited text, columns venue_name, field_id (one row
        per venue-field pair)."""
        entries: dict[str, set[str]] = {}
        for _, (venue, fid) in _tsv_rows(path, "venue map", ("venue_name", "field_id")):
            entries.setdefault(venue, set()).add(fid)
        return cls(entries)


def match_venue(name: str, vmap: VenueFieldMap):
    """Exact match on the full normalized name, else the first piece of the
    name split at any of ``. ; : / -``, left to right, with an exact hit
    (flagged approximate), else None."""
    hit = vmap.entries.get(normalize_venue(name))
    if hit is not None:
        return hit, "exact"
    for piece in map(normalize_venue, _SPLIT_RE.split(name)):
        if piece and (hit := vmap.entries.get(piece)) is not None:
            return hit, "approximate"
    return None


# --- record loading and aggregation ----------------------------------------

_MANDATORY = ("researcher_id", "venue", "year", "n_authors")
_TEXT_KEYS = ("researcher_id", "venue", "institution", "state")
_KEYS = _MANDATORY + ("institution", "state")
YEAR_RANGE = (1900, 2100)
AUTHORS_MAX = 2**63 - 1  # n_authors is an int64 column
CHUNK_ROWS = 512  # records read, checked and coded in one pass over columns
_SCAN = json.JSONDecoder().scan_once  # (value, end) of the JSON text at an index

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


def _chunks(path, fmt):
    """Yield the file's records in chunks of at most CHUNK_ROWS: the physical
    lines they start on, a list of values per key of ``_KEYS``, and a function
    giving record i as ``_validate_record`` takes it."""
    if fmt == "jsonl":
        with open(path, encoding="utf-8") as fh:
            numbered = enumerate(map(str.strip, fh), start=1)
            while block := list(islice(numbered, CHUNK_ROWS)):
                lines = [line_no for line_no, text in block if text]
                texts = [text for _, text in block if text]
                # the scanner that json.loads wraps: at a bad line it stops
                # map (StopIteration), raises, or ends short of the line's end,
                # and json_value decodes that chunk again for its error message
                scanned = []
                try:
                    scanned.extend(map(_SCAN, texts, repeat(0)))
                except (ValueError, RecursionError):
                    pass
                if list(map(itemgetter(1), scanned)) == list(map(len, texts)):
                    rows = list(map(itemgetter(0), scanned))
                else:
                    rows = list(map(json_value, texts, repeat(path), lines))
                dicts = [row if type(row) is dict else {} for row in rows]
                yield lines, {key: list(map(dict.get, dicts, repeat(key)))
                              for key in _KEYS}, rows.__getitem__
        return

    profile = FORMAT_PROFILES[fmt]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=profile["delimiter"])
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError("empty records file", path=path)
            at = {name: i for i, name in enumerate(header)}  # a repeated name: its last
            index = {key: next((at[name] for name in profile["aliases"].get(key, [key])
                                if name in at), None) for key in _KEYS}
            missing = [key for key in _MANDATORY if index[key] is None]
            if missing:
                raise ParseError(f"missing required columns {missing}", path=path)
            end = reader.line_num
            while block := [(reader.line_num, row) for row in islice(reader, CHUNK_ROWS)]:
                # a record starts on the line after the previous row's last; blank
                # rows are skipped, and the cells a short row lacks read None
                ends = [end] + [line_no for line_no, _ in block]
                lines = [prev + 1 for prev, (_, row) in zip(ends, block) if row]
                end = ends[-1]
                rows = [row if len(row) >= len(header) else row + [None] * len(header)
                        for _, row in block if row]
                cols = {key: list(map(itemgetter(i), rows)) if i is not None
                        else [None] * len(rows) for key, i in index.items()}
                yield lines, cols, lambda i, cols=cols: {k: c[i] for k, c in cols.items()}
        except csv.Error as e:  # caught once per file, not per row
            raise ParseError(f"malformed records file: {e}", path=path,
                             line=reader.line_num) from None


def _plain_ints(values, lo, hi):
    """Each value as an int where it is an int (not a bool) or a short
    ASCII-digit string, within [lo, hi]; else None. A column of only ints,
    strings and None is tested once per distinct value."""
    def plain(v):
        return n if (type(v) is int or type(v) is str and v.isascii() and v.isdigit()
                     and len(v) < 19) and lo <= (n := int(v)) <= hi else None

    # 1, True and 1.0 are one dict key, and a JSON list or object is none:
    # a column holding any other type is tested value by value
    if set(map(type, values)) <= {int, str, type(None)}:
        distinct = set(values)
        return list(map(dict(zip(distinct, map(plain, distinct))).__getitem__, values))
    return list(map(plain, values))


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
    if n_authors > AUTHORS_MAX:
        raise ValueError(f"n_authors {n_authors} exceeds {AUTHORS_MAX}")
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
    for lines, cols, raw in _chunks(path, fmt):
        years = _plain_ints(cols["year"], *YEAR_RANGE)
        authors = _plain_ints(cols["n_authors"], 1, AUTHORS_MAX)
        valid = [type(r) is str and type(v) is str and r != "" and v != ""
                 and y is not None and a is not None
                 and (i is None or type(i) is str) and (s is None or type(s) is str)
                 for r, v, _, _, i, s, y, a in zip(*cols.values(), years, authors)]
        # _validate_record converts the other records or says why they are invalid
        for i in compress(count(), map(not_, valid)):
            try:
                text, years[i], authors[i] = _validate_record(raw(i))
            except (ValueError, TypeError) as e:
                issues.append((lines[i], str(e)))
                continue
            cols["venue"][i], cols[key][i] = text["venue"], text[key]
            valid[i] = True
        venues = list(compress(cols["venue"], valid))
        for venue in filterfalse(hits.__contains__, dict.fromkeys(venues)):
            hit = match_venue(venue, vmap)
            hits[venue] = (None, "unmatched") if hit is None else (
                set_code.setdefault(hit[0], len(set_code)), hit[1])
        codes = [hits[venue][0] for venue in venues]
        stats.update(hits[venue][1] for venue in venues)
        eids = [e or None for e in compress(cols[key], valid)]  # "" is no entity
        keep = [code is not None and e is not None for code, e in zip(codes, eids)]
        stats["missing_attribute"] += len(codes) - codes.count(None) - sum(keep)
        entity.extend(entity_code.setdefault(eid, len(entity_code))
                      for eid in compress(eids, keep))
        field_set.extend(compress(codes, keep))
        n_authors.extend(compress(compress(authors, valid), keep))
        year.extend(compress(compress(years, valid), keep))
    return ResolvedCorpus(
        list(entity_code), list(set_code),
        *(np.frombuffer(c, dtype=np.int64) for c in columns), kind,
        MatchStats(**stats),
    ), issues
