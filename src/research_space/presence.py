"""Time windows, the normalized contribution matrix X(t), and the thresholded
presence matrix P(t)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .corpus import EntityKind, FieldTaxonomy, ResolvedCorpus
from .errors import ConfigError


@dataclass(frozen=True)
class TimeWindow:
    start_year: int
    end_year: int

    def __post_init__(self):
        if self.start_year > self.end_year:
            raise ConfigError(
                f"window start {self.start_year} after end {self.end_year}"
            )

    def __contains__(self, year: int) -> bool:
        return self.start_year <= year <= self.end_year

    @property
    def span(self) -> int:
        return self.end_year - self.start_year + 1

    def overlaps(self, other: "TimeWindow") -> bool:
        return self.start_year <= other.end_year and other.start_year <= self.end_year

    @classmethod
    def parse(cls, text: str) -> "TimeWindow":
        """Parse the canonical START:END inclusive-year syntax."""
        try:
            start, end = text.split(":")
            return cls(int(start), int(end))
        except ValueError:
            raise ConfigError(f"window must be START:END, got {text!r}")

    def __str__(self):
        return f"{self.start_year}:{self.end_year}"


@dataclass(frozen=True)
class WindowConfig:
    """Fitting, RCA-estimation, and prediction-testing windows.

    Fit and RCA windows end at the same year t, the test window starts at
    t+1, and the fit span is at least the RCA span.
    """

    fit_window: TimeWindow
    rca_window: TimeWindow
    test_window: TimeWindow

    def __post_init__(self):
        if self.fit_window.end_year != self.rca_window.end_year:
            raise ConfigError("fit and RCA windows must end at the same year")
        if self.test_window.start_year != self.fit_window.end_year + 1:
            raise ConfigError("test window must start the year after the fit window ends")
        if self.fit_window.span < self.rca_window.span:
            raise ConfigError("fit window span must be >= RCA window span")
        if self.test_window.overlaps(self.fit_window) or self.test_window.overlaps(
            self.rca_window
        ):
            raise ConfigError("test window must not overlap fit/RCA windows")


@dataclass
class ContributionMatrix:
    """X(t): entity x field, each record contributing 1/(n_p * m_p)."""

    values: sparse.csr_matrix
    entity_ids: list[str]
    field_ids: list[str]
    window: TimeWindow
    kind: EntityKind


@dataclass
class PresenceMatrix:
    """P(t): binary entity x field, P = 1 iff X > theta (strict)."""

    values: sparse.csr_matrix
    entity_ids: list[str]
    field_ids: list[str]
    theta: float
    window: TimeWindow
    kind: EntityKind


def contribution_matrix(corpus: ResolvedCorpus, taxonomy: FieldTaxonomy,
                        window: TimeWindow) -> ContributionMatrix:
    """Fold records inside the window into X; entities appear in first-seen
    order, fields in taxonomy order."""
    entity_index: dict[str, int] = {}
    rows, cols, vals = [], [], []
    findex = taxonomy.field_index
    for rec in corpus.records:
        if rec.year not in window:
            continue
        ei = entity_index.setdefault(rec.entity_id, len(entity_index))
        m_p = len(rec.field_ids)
        w = 1.0 / (rec.n_authors * m_p)
        for fid in rec.field_ids:
            try:
                rows.append(ei)
                cols.append(findex[fid])
                vals.append(w)
            except KeyError:
                raise ConfigError(f"record references unknown field {fid!r}")
    n_entities = len(entity_index)
    mat = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(n_entities, len(taxonomy)), dtype=np.float64
    )
    mat.sum_duplicates()
    return ContributionMatrix(
        values=mat,
        entity_ids=list(entity_index),
        field_ids=list(taxonomy.field_ids),
        window=window,
        kind=corpus.kind,
    )


def presence_matrix(x: ContributionMatrix, theta: float) -> PresenceMatrix:
    if not (np.isfinite(theta) and theta > 0):
        raise ConfigError(f"theta must be finite and > 0, got {theta}")
    mask = x.values > theta  # strict
    vals = sparse.csr_matrix(mask, dtype=np.int8)
    vals.eliminate_zeros()
    return PresenceMatrix(
        values=vals,
        entity_ids=list(x.entity_ids),
        field_ids=list(x.field_ids),
        theta=theta,
        window=x.window,
        kind=x.kind,
    )


def export_sparse_triples(entity_ids, field_ids, matrix) -> list[tuple[str, str, float]]:
    """(entity_id, field_id, value) triples for the nonzero cells, row-major."""
    coo = sparse.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    return [
        (entity_ids[coo.row[i]], field_ids[coo.col[i]], float(coo.data[i]))
        for i in order
    ]
