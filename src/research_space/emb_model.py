"""Field embeddings trained on entities' field bags with a margin-ranking
hinge loss and uniform negative sampling; proximity is clipped cosine."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TrainingError
from .freq_model import ProximityMatrix
from .presence import EntityFieldMatrix, TimeWindow

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EmbeddingConfig:
    dim: int = 100
    epochs: int = 10
    learning_rate: float = 0.05  # linearly decayed to 0
    negatives_per_example: int = 10
    margin: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.dim <= 0:
            raise ConfigError(f"dim must be positive, got {self.dim}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be finite and positive")
        if self.negatives_per_example <= 0:
            raise ConfigError("negatives_per_example must be positive")
        if not (np.isfinite(self.margin) and self.margin > 0):
            raise ConfigError("margin must be finite and positive")


@dataclass
class FieldEmbedding:
    vectors: np.ndarray  # n_fields x dim
    field_ids: list[str]
    config: EmbeddingConfig
    window: TimeWindow
    epoch_losses: list[float] = field(default_factory=list)


def build_bags(p: EntityFieldMatrix) -> list[np.ndarray]:
    """The sorted field indices of each entity with at least one present
    field, in entity order: the non-empty CSR rows of P."""
    csr = p.values.sorted_indices()
    return [b for b in np.split(csr.indices, csr.indptr[1:-1]) if len(b)]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; zero-norm vectors yield 0 by convention."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        logger.debug("cosine of zero-norm vector, returning 0")
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def _cosine_grads(a, b):
    """d cos(a,b) / da and / db; both vectors assumed nonzero."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    c = np.dot(a, b) / (na * nb)
    da = b / (na * nb) - c * a / (na * na)
    db = a / (na * nb) - c * b / (nb * nb)
    return da, db


def hinge_loss_and_grads(input_vec, pos, negs, margin):
    """Loss sum_n max(0, margin - cos(input, pos) + cos(input, neg_n)) and its
    analytic gradients w.r.t. input, pos, and each negative."""
    loss = 0.0
    g_in = np.zeros_like(input_vec)
    g_pos = np.zeros_like(pos)
    g_negs = np.zeros_like(negs)
    c_pos = cosine(input_vec, pos)
    for n in range(negs.shape[0]):
        c_neg = cosine(input_vec, negs[n])
        l = margin - c_pos + c_neg
        if l <= 0:
            continue
        loss += l
        d_in_pos, d_pos = _cosine_grads(input_vec, pos)
        d_in_neg, d_neg = _cosine_grads(input_vec, negs[n])
        g_in += -d_in_pos + d_in_neg
        g_pos += -d_pos
        g_negs[n] += d_neg
    return loss, g_in, g_pos, g_negs


def _project_max_norm(vectors, indices):
    for i in indices:
        n = np.linalg.norm(vectors[i])
        if n > 1.0:
            vectors[i] /= n


def train_embeddings(bags, config: EmbeddingConfig, field_ids,
                     window: TimeWindow) -> FieldEmbedding:
    """Single-threaded SGD over the bags (sorted field-index arrays) of at
    least two fields, so that a positive has a context; the seed fully
    determines the trajectory. Fields absent from all bags keep their
    initialization."""
    trainable = [b for b in bags if len(b) >= 2]
    if not trainable:
        raise TrainingError("no trainable bags (all bags have < 2 fields)")
    rng = np.random.default_rng(config.seed)
    n_fields = len(field_ids)
    vectors = rng.uniform(-1.0 / config.dim, 1.0 / config.dim,
                          size=(n_fields, config.dim))
    all_fields = np.arange(n_fields)

    total_steps = config.epochs * len(trainable)
    step = 0
    epoch_losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(trainable))
        epoch_loss = 0.0
        for bi in order:
            lr = config.learning_rate * (1.0 - step / total_steps)
            step += 1
            fields = trainable[bi]
            pos_i = int(rng.choice(fields))
            context = fields[fields != pos_i]
            outside = np.setdiff1d(all_fields, fields, assume_unique=True)
            if len(outside) == 0:
                continue
            neg_i = rng.choice(outside, size=config.negatives_per_example,
                               replace=True)
            input_vec = vectors[context].mean(axis=0)
            loss, g_in, g_pos, g_negs = hinge_loss_and_grads(
                input_vec, vectors[pos_i], vectors[neg_i], config.margin
            )
            epoch_loss += loss
            if loss > 0:
                # input is the context mean, so its gradient splits evenly
                vectors[context] -= lr * g_in / len(context)
                vectors[pos_i] -= lr * g_pos
                # accumulate per unique negative (sampling is with replacement)
                np.subtract.at(vectors, neg_i, lr * g_negs)
                touched = np.concatenate((context, [pos_i], neg_i))
                _project_max_norm(vectors, np.unique(touched))
        epoch_losses.append(epoch_loss / len(trainable))

    return FieldEmbedding(
        vectors=vectors,
        field_ids=list(field_ids),
        config=config,
        window=window,
        epoch_losses=epoch_losses,
    )


def proximity_emb(e: FieldEmbedding) -> ProximityMatrix:
    """phi_ff' = max(0, cos(vec_f, vec_f')); symmetric, diagonal 1 for
    nonzero vectors."""
    norms = np.linalg.norm(e.vectors, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = e.vectors / safe[:, None]
    sims = unit @ unit.T
    sims[norms == 0, :] = 0.0
    sims[:, norms == 0] = 0.0
    phi = np.clip(sims, 0.0, None)
    np.fill_diagonal(phi, np.where(norms > 0, 1.0, 0.0))
    # symmetry can drift by float noise in the matmul
    phi = (phi + phi.T) / 2.0
    return ProximityMatrix(
        values=phi,
        field_ids=list(e.field_ids),
        model_tag="embedding",
        window=e.window,
    )
