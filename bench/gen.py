"""Seeded synthetic inputs for the pipeline benchmark.

Writes a 250-field taxonomy, a 2,000-venue map and publication records in
which scientists enter new fields mostly next to fields they already work in,
so relatedness predicts entry without saturating AUROC. It also returns the
planted truth (which rows are valid, how each venue name matches, which
fields each venue carries) that the benchmark's oracles use; the program
under test only ever sees the files.

Run ``python3 bench/gen.py --seed 1 --out DIR`` to write a scientist-freq
input set to DIR.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_FIELDS = 250
FIELDS_PER_INTERMEDIATE = 5
N_INTERMEDIATES = N_FIELDS // FIELDS_PER_INTERMEDIATE  # 50
N_MACROS = 8
VENUES_PER_FIELD = 8
N_VENUES = N_FIELDS * VENUES_PER_FIELD  # 2,000
FIRST_YEAR, LAST_YEAR = 2000, 2015
MAX_AUTHORS = 15  # n_authors * m_p < 60, see planted_records
N_INSTITUTIONS = 300
N_STATES = 27

EXACT, APPROXIMATE, UNMATCHED = 0, 1, 2
# Share of valid rows per venue-name kind, and of extra invalid rows.
NAME_KIND_P = (0.89, 0.10, 0.01)
INVALID_SHARE = 0.003
MISSING_INSTITUTION_SHARE = 0.02

# Column headers of the zenodo CSV profile, one alias per canonical column.
ZENODO_HEADER = ["lattes_id", "journal", "publication_year", "num_authors",
                 "workplace", "uf"]
VENUE_PREFIXES = ["Journal of", "Annals of", "Reviews in", "Letters on",
                  "Transactions on"]


def field_id(f):
    return f"F{f + 1:03d}"


def intermediate_of(f):
    return f // FIELDS_PER_INTERMEDIATE


def macro_of_intermediate(i):
    return i * N_MACROS // N_INTERMEDIATES


def venue_name(v):
    return f"{VENUE_PREFIXES[v % len(VENUE_PREFIXES)]} Topic {v:04d}"


@dataclass
class Truth:
    """Planted facts about one input set, in record-file order.

    The record arrays hold the valid rows only; ``invalid_rows`` counts the
    extra malformed rows mixed into the file.
    """

    researcher: np.ndarray  # int
    institution: np.ndarray  # int, -1 when the row has none
    year: np.ndarray
    n_authors: np.ndarray
    venue: np.ndarray  # int, -1 when the name matches no venue
    name_kind: np.ndarray  # EXACT / APPROXIMATE / UNMATCHED
    venue_fields: list  # per venue: sorted field indices
    invalid_rows: int
    files: dict  # name -> {"sha256", "bytes"}

    def counts(self):
        kinds = np.bincount(self.name_kind, minlength=3)
        return {"exact": int(kinds[EXACT]), "approximate": int(kinds[APPROXIMATE]),
                "unmatched": int(kinds[UNMATCHED]), "invalid_rows": self.invalid_rows}


def _venue_fields(rng):
    """Each venue serves its primary field; a quarter add a sibling field from
    the same intermediate and a few add a field from the same macro."""
    out = []
    for v in range(N_VENUES):
        f = v % N_FIELDS
        fields = {f}
        base = intermediate_of(f) * FIELDS_PER_INTERMEDIATE
        if rng.random() < 0.25:
            fields.add(base + int(rng.integers(FIELDS_PER_INTERMEDIATE)))
        if rng.random() < 0.05:
            macro = macro_of_intermediate(intermediate_of(f))
            same = [i for i in range(N_INTERMEDIATES) if macro_of_intermediate(i) == macro]
            i = same[int(rng.integers(len(same)))]
            fields.add(i * FIELDS_PER_INTERMEDIATE + int(rng.integers(FIELDS_PER_INTERMEDIATE)))
        out.append(np.array(sorted(fields)))
    return out


def _relatedness_kernel():
    inter = np.arange(N_FIELDS) // FIELDS_PER_INTERMEDIATE
    macro = np.array([macro_of_intermediate(i) for i in inter])
    k = np.where(macro[:, None] == macro[None, :], 0.15, 0.01)
    k[inter[:, None] == inter[None, :]] = 1.0
    np.fill_diagonal(k, 0.0)
    return k


def _row_choice(rng, weights):
    """One column index per row, drawn with probability proportional to the
    row's weights."""
    cum = np.cumsum(weights, axis=1)
    u = rng.random(len(weights)) * cum[:, -1]
    return np.minimum((cum <= u[:, None]).sum(axis=1), weights.shape[1] - 1)


def planted_records(rng, n_scientists, records_per_scientist, p_enter=0.3,
                    related_share=0.7):
    """Simulate careers year by year.

    Each scientist starts in one home field. Every year they enter a new field
    with probability ``p_enter``: with probability ``related_share`` it is
    drawn in proportion to its relatedness to the current portfolio, otherwise
    uniformly from the fields not yet held. Each paper picks a field from the
    portfolio (newer fields weigh less) and one of that field's venues.
    Author counts stay at most MAX_AUTHORS, so every contribution 1/(n*m) is
    above 1/60 and at most two of them can sum to the presence threshold
    0.05: summation order can never flip presence.
    """
    kernel = _relatedness_kernel()
    start = rng.integers(FIRST_YEAR, FIRST_YEAR + 10, size=n_scientists)
    active_years = (LAST_YEAR - start + 1).astype(float)
    rate = records_per_scientist / active_years.mean()
    inst_p = 1.0 / (np.arange(N_INSTITUTIONS) + 10.0) ** 1.1
    institution = rng.choice(N_INSTITUTIONS, size=n_scientists, p=inst_p / inst_p.sum())
    weights = np.zeros((n_scientists, N_FIELDS))
    weights[np.arange(n_scientists), rng.integers(N_FIELDS, size=n_scientists)] = 1.0
    cols = {"researcher": [], "year": [], "field": [], "n_authors": []}
    for year in range(FIRST_YEAR, LAST_YEAR + 1):
        active = np.flatnonzero(start <= year)
        enter = active[rng.random(len(active)) < p_enter]
        if len(enter):
            held = weights[enter] > 0
            related = held @ kernel
            related[held] = 0.0
            free = (~held).astype(float)
            mix = (related_share * related / related.sum(axis=1, keepdims=True)
                   + (1 - related_share) * free / free.sum(axis=1, keepdims=True))
            weights[enter, _row_choice(rng, mix)] = 0.5
        n = rng.poisson(rate, size=len(active))
        who = np.repeat(active, n)
        cols["researcher"].append(who)
        cols["year"].append(np.full(len(who), year))
        cols["field"].append(_row_choice(rng, weights[who]))
        cols["n_authors"].append(1 + np.minimum(rng.poisson(2.5, size=len(who)),
                                                MAX_AUTHORS - 1))
    rec = {k: np.concatenate(v) for k, v in cols.items()}
    n = len(rec["year"])
    rec["venue"] = rec.pop("field") + N_FIELDS * rng.integers(VENUES_PER_FIELD, size=n)
    rec["institution"] = np.where(rng.random(n) < MISSING_INSTITUTION_SHARE, -1,
                                  institution[rec["researcher"]])
    rec["name_kind"] = rng.choice(3, size=n, p=NAME_KIND_P)
    rec["venue"][rec["name_kind"] == UNMATCHED] = -1
    return rec


def _record_venue_name(rng, v, kind, k):
    """The venue string a record carries: exact names vary only in case and
    spacing; approximate ones embed the name among pieces split off at
    ``. ; : / -``; unmatched ones share no piece with any venue."""
    if kind == UNMATCHED:
        return f"Unlisted Forum {k}" if k % 2 else f"Workshop; Local Topic {k}"
    name = venue_name(v)
    if kind == APPROXIMATE:
        form = k % 3
        if form == 0:
            name = f"{name} / Proceedings {k}"
        elif form == 1:
            name = f"Proc. {name}"
        else:
            name = f"{name}: Special Issue {k}"
    style = rng.integers(4)
    if style == 1:
        name = name.upper()
    elif style == 2:
        name = "  " + name.replace(" ", "  ", 1) + " "
    return name


def _invalid_row(kind, k):
    """A row the loader must report and skip: bad author count, year out of
    range, or a missing venue."""
    row = {"researcher_id": f"R{k:06d}", "venue": venue_name(k % N_VENUES),
           "year": 2005, "n_authors": 2, "institution": "INST000", "state": "S01"}
    if kind == 0:
        row["n_authors"] = 0
    elif kind == 1:
        row["year"] = 1850
    else:
        row["venue"] = ""
    return row


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_inputs(out_dir, seed, n_scientists, records_per_scientist, fmt="jsonl"):
    """Write taxonomy.tsv, venues.tsv and records.jsonl (or records.csv in the
    zenodo profile) to ``out_dir``; return the planted Truth."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    venue_fields = _venue_fields(rng)
    rec = planted_records(rng, n_scientists, records_per_scientist)

    with open(out / "taxonomy.tsv", "w", encoding="utf-8") as fh:
        fh.write("field_id\tfield_name\tintermediate_id\tintermediate_acronym"
                 "\tmacro_id\tmacro_name\n")
        for f in range(N_FIELDS):
            i = intermediate_of(f)
            m = macro_of_intermediate(i)
            fh.write(f"{field_id(f)}\tField {f + 1}\tI{i + 1:02d}\tIM{i + 1:02d}"
                     f"\tM{m + 1}\tMacro area {m + 1}\n")
    with open(out / "venues.tsv", "w", encoding="utf-8") as fh:
        fh.write("venue_name\tfield_id\n")
        for v, fields in enumerate(venue_fields):
            for f in fields:
                fh.write(f"{venue_name(v)}\t{field_id(f)}\n")

    n = len(rec["year"])
    n_invalid = max(1, round(n * INVALID_SHARE))
    # invalid rows go before these valid-row positions
    invalid_at = np.sort(rng.integers(n + 1, size=n_invalid))
    rows = []
    j = 0
    for idx in range(n):
        while j < n_invalid and invalid_at[j] == idx:
            rows.append(_invalid_row(j % 3, j))
            j += 1
        inst = rec["institution"][idx]
        rows.append({
            "researcher_id": f"R{rec['researcher'][idx]:06d}",
            "venue": _record_venue_name(rng, rec["venue"][idx], rec["name_kind"][idx], idx),
            "year": int(rec["year"][idx]),
            "n_authors": int(rec["n_authors"][idx]),
            "institution": f"INST{inst:03d}" if inst >= 0 else "",
            "state": f"S{inst % N_STATES + 1:02d}" if inst >= 0 else "",
        })
    while j < n_invalid:
        rows.append(_invalid_row(j % 3, j))
        j += 1

    if fmt == "jsonl":
        path = out / "records.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
    else:
        path = out / "records.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(ZENODO_HEADER)
            for row in rows:
                w.writerow([row["researcher_id"], row["venue"], row["year"],
                            row["n_authors"], row["institution"], row["state"]])

    files = {p.name: {"sha256": _sha256(p), "bytes": p.stat().st_size}
             for p in (out / "taxonomy.tsv", out / "venues.tsv", path)}
    return Truth(
        researcher=rec["researcher"], institution=rec["institution"],
        year=rec["year"], n_authors=rec["n_authors"], venue=rec["venue"],
        name_kind=rec["name_kind"], venue_fields=venue_fields,
        invalid_rows=n_invalid, files=files,
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    truth = write_inputs(args.out, args.seed, 2000, 20.0)
    print(json.dumps({"planted": truth.counts(), "files": truth.files}, indent=2))


if __name__ == "__main__":
    main()
