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
    window: TimeWindow
    epoch_losses: list[float] = field(default_factory=list)


def build_bags(p: EntityFieldMatrix) -> list[np.ndarray]:
    """The sorted field indices of each entity with at least one present
    field, in entity order: the non-empty rows of P."""
    rows, cols = np.nonzero(p.values)
    return np.split(cols, np.flatnonzero(np.diff(rows)) + 1) if len(cols) else []


def hinge_loss_and_grads(input_vec, pos, negs, margin):
    """Loss sum_n max(0, margin - cos(input, pos) + cos(input, neg_n)) and its
    analytic gradients w.r.t. input, pos, and each negative, for all k
    negatives at once. A zero-norm vector has cosine 0 by convention."""
    targets = np.concatenate((pos[None, :], negs))  # row 0 is the positive
    na = np.sqrt(input_vec @ input_vec)
    nt = np.sqrt(np.einsum("ij,ij->i", targets, targets))
    denom = na * nt
    cos = np.divide(targets @ input_vec, denom, out=np.zeros(len(targets)),
                    where=(na != 0.0) & (nt != 0.0))
    hinge = margin - cos[0] + cos[1:]
    active = hinge > 0
    n_active = np.count_nonzero(active)
    if not n_active:
        return 0.0, np.zeros_like(input_vec), np.zeros_like(pos), np.zeros_like(negs)
    # d cos(input, t) / d input = t / denom - cos input / na^2, summed with
    # weight -n_active for the positive and 1 for each active negative
    weight = np.concatenate(([-n_active], active))
    g_in = (weight / denom) @ targets - (weight @ cos) / (na * na) * input_vec
    # d cos(input, t) / d t = input / denom - cos t / nt^2
    d_t = np.outer(1.0 / denom, input_vec) - targets * (cos / (nt * nt))[:, None]
    g_negs = np.where(active[:, None], d_t[1:], 0.0)
    return float(hinge[active].sum()), g_in, -n_active * d_t[0], g_negs


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
    # the j-th field outside a sorted bag is j plus the count of bag entries
    # b_i with b_i - i <= j; these shifts give the draws rng.choice would
    # make from np.setdiff1d(all fields, bag)
    shifts = [b - np.arange(len(b)) for b in trainable]

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
            pos_i = fields[rng.integers(len(fields))]
            context = fields[fields != pos_i]
            n_outside = n_fields - len(fields)
            if n_outside == 0:
                continue
            j = rng.integers(0, n_outside, size=config.negatives_per_example)
            neg_i = j + np.searchsorted(shifts[bi], j, side="right")
            input_vec = vectors[context].sum(axis=0) / len(context)
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
                # max-norm projection of the touched rows; a repeated
                # negative is written twice with the same projected row
                touched = np.concatenate((context, [pos_i], neg_i))
                norms = np.linalg.norm(vectors[touched], axis=1)
                over = norms > 1.0
                vectors[touched[over]] /= norms[over, None]
        epoch_losses.append(epoch_loss / len(trainable))
        logger.info("epoch %d/%d: mean hinge loss %.6g", len(epoch_losses),
                    config.epochs, epoch_losses[-1])

    return FieldEmbedding(
        vectors=vectors,
        field_ids=list(field_ids),
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
