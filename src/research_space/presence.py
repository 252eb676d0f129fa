"""Time windows, the normalized contribution matrix X(t), and the thresholded
presence matrix P(t)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import FieldTaxonomy, ResolvedCorpus
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

    def mask(self, years: np.ndarray) -> np.ndarray:
        """Boolean mask of the years inside the window."""
        return (years >= self.start_year) & (years <= self.end_year)

    @property
    def span(self) -> int:
        return self.end_year - self.start_year + 1

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


def check_windows(fit: TimeWindow, rca: TimeWindow, test: TimeWindow):
    """Check the fitting, RCA-estimation and prediction-testing windows: fit
    and RCA windows end at the same year t, the test window starts at t+1,
    and the fit span is at least the RCA span. So the test window never
    overlaps the other two."""
    if fit.end_year != rca.end_year:
        raise ConfigError("fit and RCA windows must end at the same year")
    if test.start_year != fit.end_year + 1:
        raise ConfigError("test window must start the year after the fit window ends")
    if fit.span < rca.span:
        raise ConfigError("fit window span must be >= RCA window span")


def contribution_matrix(corpus: ResolvedCorpus, taxonomy: FieldTaxonomy,
                        window: TimeWindow) -> np.ndarray:
    """X(t), each record inside the window contributing 1/(n_p * m_p): one
    row per entity of the corpus, in corpus.entity_ids order, all zero for an
    entity with no record in the window; fields in taxonomy order."""
    keep = window.mask(corpus.year)
    field_set = corpus.field_set[keep]
    # every field set's taxonomy columns once, as one flat array (-1: unknown)
    flat = [fid for fields in corpus.field_sets for fid in fields]
    flat_cols = np.array([taxonomy.field_index.get(fid, -1) for fid in flat],
                         dtype=np.int64)
    sizes = np.array([len(fields) for fields in corpus.field_sets], dtype=np.int64)
    set_start = np.cumsum(sizes) - sizes
    m_p = sizes[field_set]
    # cell k of a record is entry k of its field set
    pos = np.arange(m_p.sum()) + np.repeat(
        set_start[field_set] - (np.cumsum(m_p) - m_p), m_p)
    cells = flat_cols[pos]
    if (cells < 0).any():
        raise ConfigError(
            f"record references unknown field {flat[pos[np.argmax(cells < 0)]]!r}")
    shape = (len(corpus.entity_ids), len(taxonomy))
    cells += np.repeat(corpus.entity[keep] * shape[1], m_p)  # row-major index in X
    # bincount adds each cell's contributions in input order, record order;
    # with no record it returns int64, hence the cast
    mat = np.bincount(cells, minlength=shape[0] * shape[1],
                      weights=np.repeat(1.0 / (corpus.n_authors[keep] * m_p), m_p))
    return mat.astype(np.float64, copy=False).reshape(shape)


def presence_matrix(x: np.ndarray, theta: float) -> np.ndarray:
    """P(t) of the X array: binary int8, P = 1 iff X > theta (strict)."""
    if not (np.isfinite(theta) and theta > 0):
        raise ConfigError(f"theta must be finite and > 0, got {theta}")
    return (x > theta).astype(np.int8)  # strict
