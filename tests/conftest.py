import numpy as np
import pytest

from research_space.corpus import (
    EntityKind,
    FieldTaxonomy,
    Intermediate,
    ResolvedCorpus,
    MatchStats,
    TaxonomyField,
)


def same_bits(a, b):
    """Whether two arrays hold the same dtype, shape and bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def dense_hinge(hinge_loss_and_grads, inputs, targets, margin):
    """``hinge_loss_and_grads`` with the gradients of its terms put back into
    the dense (bags, 1 + k, dim) block, zero at every other target; also the
    terms' (bag, target) positions."""
    loss, g_in, terms, g_terms = hinge_loss_and_grads(inputs, targets, margin)
    g_t = np.zeros_like(targets)
    g_t[terms] = g_terms
    return loss, g_in, g_t, terms


def make_taxonomy(n_fields=6, fields_per_intermediate=3):
    """Small synthetic 3-level taxonomy: F001.., I1.., two macro areas."""
    fields = []
    intermediates = {}
    n_inter = (n_fields + fields_per_intermediate - 1) // fields_per_intermediate
    for k in range(n_inter):
        iid = f"I{k + 1}"
        mid = "M1" if k < (n_inter + 1) // 2 else "M2"
        intermediates[iid] = Intermediate(f"IN{k + 1}", mid)
    for i in range(n_fields):
        iid = f"I{i // fields_per_intermediate + 1}"
        fields.append(TaxonomyField(f"F{i + 1:03d}", f"Field {i + 1}", iid))
    macros = {"M1": "Macro One", "M2": "Macro Two"}
    return FieldTaxonomy(fields, intermediates, macros)


def make_corpus(rows, kind=EntityKind.SCIENTIST, match_stats=None):
    """rows: (entity_id, field_ids, n_authors, year) tuples, in record order."""
    entity_code, set_code = {}, {}
    columns = [[entity_code.setdefault(e, len(entity_code)),
                set_code.setdefault(tuple(f), len(set_code)), n, y]
               for e, f, n, y in rows]
    entity, field_set, n_authors, year = np.array(
        columns, dtype=np.int64).reshape(len(rows), 4).T
    return ResolvedCorpus(list(entity_code), list(set_code), entity, field_set,
                          n_authors, year, kind, match_stats or MatchStats())


def corpus_rows(corpus):
    """The inverse of make_corpus: (entity_id, field_ids, n_authors, year)
    tuples in record order."""
    return [(corpus.entity_ids[e], corpus.field_sets[s], n, y)
            for e, s, n, y in zip(corpus.entity.tolist(), corpus.field_set.tolist(),
                                  corpus.n_authors.tolist(), corpus.year.tolist())]


@pytest.fixture
def taxonomy6():
    return make_taxonomy(6)


@pytest.fixture
def taxonomy12():
    return make_taxonomy(12, fields_per_intermediate=4)
