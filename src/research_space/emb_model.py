"""Field embeddings trained on entities' field bags with a margin-ranking
hinge loss and uniform negative sampling; proximity is clipped cosine."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TrainingError

logger = logging.getLogger(__name__)

# Most bags one SGD update takes.
BATCH_BAGS = 128
# Most floats in one batch's (bags, 1 + negatives, dim) target block.
BATCH_FLOATS = 1 << 18


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
        if (1 + self.negatives_per_example) * self.dim > BATCH_FLOATS:
            raise ConfigError(
                f"one bag's target block, (1 + negatives_per_example "
                f"{self.negatives_per_example}) x dim {self.dim} floats, exceeds "
                f"{BATCH_FLOATS}"
            )


@dataclass
class FieldEmbedding:
    vectors: np.ndarray  # n_fields x dim, in P's column order
    epoch_losses: list[float] = field(default_factory=list)


def bags_per_batch(config: EmbeddingConfig) -> int:
    """Bags per SGD update: BATCH_BAGS, or fewer so that one batch's
    (bags, 1 + negatives, dim) target block holds at most BATCH_FLOATS
    floats; the config allows at least one."""
    per_bag = (1 + config.negatives_per_example) * config.dim
    return min(BATCH_BAGS, BATCH_FLOATS // per_bag)


def _inverse(x):
    """1 / x, with 0 where x is 0."""
    return np.divide(1.0, x, out=np.zeros_like(x), where=x != 0.0)


def hinge_loss_and_grads(inputs, targets, margin):
    """Per-bag loss sum_n max(0, margin - cos(a, t_0) + cos(a, t_n)) for a
    batch of inputs a (bags x dim) and targets (bags x (1 + k) x dim) whose
    row 0 is the positive, with its analytic gradients w.r.t. the inputs
    (bags x dim) and w.r.t. the targets of nonzero weight: the positive of
    each bag with an active negative, then that bag's active negatives. These
    terms come as their (bag, target) positions, bag after bag, and their
    gradients (terms x dim); every other target's gradient is exactly zero.
    A zero-norm vector has cosine 0 and passes no gradient."""
    na = np.sqrt(np.einsum("bd,bd->b", inputs, inputs))
    nt = np.sqrt(np.einsum("btd,btd->bt", targets, targets))
    inv = _inverse(na[:, None] * nt)
    cos = np.einsum("bd,btd->bt", inputs, targets) * inv
    hinge = margin - cos[:, :1] + cos[:, 1:]
    active = hinge > 0
    # each active negative adds cos(a, t_n) - cos(a, t_0) to the loss
    weight = np.concatenate((-active.sum(axis=1, keepdims=True), active), axis=1)
    w_inv = weight * inv
    w_cos = weight * cos
    # d cos(a, t) / d a = t / (|a| |t|) - cos a / |a|^2, and likewise for t
    g_in = (np.einsum("bt,btd->bd", w_inv, targets)
            - (w_cos.sum(axis=1) * _inverse(na * na))[:, None] * inputs)
    terms = np.nonzero(weight)
    g_t = w_inv[terms][:, None] * inputs[terms[0]]
    g_t -= targets[terms] * (w_cos * _inverse(nt * nt))[terms][:, None]
    return np.where(active, hinge, 0.0).sum(axis=1), g_in, terms, g_t


def train_embeddings(p: np.ndarray, config: EmbeddingConfig) -> FieldEmbedding:
    """Single-threaded minibatch SGD over the bags of the presence array P:
    the sorted field indices of each row with at least two present fields,
    so that a positive has a context, in row order. The seed fully
    determines the trajectory. Fields absent from all bags keep their
    initialization. A batch of one bag is the per-bag SGD step."""
    rows, flat = np.nonzero(p)  # row by row, each row's fields ascending
    sizes = np.bincount(rows)
    trainable = sizes >= 2
    flat, sizes = flat[trainable[rows]], sizes[trainable]
    n_bags = len(sizes)
    if not n_bags:
        raise TrainingError("no trainable bags (all bags have < 2 fields)")
    rng = np.random.default_rng(config.seed)
    n_fields = p.shape[1]
    vectors = rng.uniform(-1.0 / config.dim, 1.0 / config.dim,
                          size=(n_fields, config.dim))
    starts = np.cumsum(sizes) - sizes
    # the j-th field outside a sorted bag is j plus the count of bag entries
    # b_i with b_i - i <= j; these shifts give the draws rng.choice would
    # make from np.setdiff1d(all fields, bag)
    shifts = flat - (np.arange(len(flat)) - np.repeat(starts, sizes))
    batch = bags_per_batch(config)

    total_bags = config.epochs * n_bags
    done = 0
    epoch_losses = []
    for _ in range(config.epochs):
        order = rng.permutation(n_bags)
        epoch_loss = 0.0
        for lo in range(0, len(order), batch):
            bi = order[lo:lo + batch]
            lr = config.learning_rate * (1.0 - done / total_bags)
            done += len(bi)
            pos_at = starts[bi] + rng.integers(0, sizes[bi])
            # a bag of every field has no negative and only draws its positive
            keep = sizes[bi] < n_fields
            bi, pos_at = bi[keep], pos_at[keep]
            if not len(bi):
                continue
            n = sizes[bi]
            j = rng.integers(0, (n_fields - n)[:, None],
                             size=(len(bi), config.negatives_per_example))
            # the batch's bag entries, bag after bag; offsetting each bag's
            # shifts by its batch position keeps one searchsorted per batch
            first = np.cumsum(n) - n
            member = np.arange(n.sum()) - np.repeat(first - starts[bi], n)
            offset = np.arange(len(bi))[:, None] * (n_fields + 1)
            key = shifts[member] + np.repeat(offset, n)
            neg = j + np.searchsorted(key, j + offset, side="right") - first[:, None]
            context = flat[member[member != np.repeat(pos_at, n)]]
            inputs = np.add.reduceat(vectors[context], first - np.arange(len(bi)),
                                     axis=0) / (n - 1)[:, None]
            targets = np.concatenate((flat[pos_at][:, None], neg), axis=1)
            loss, g_in, terms, g_t = hinge_loss_and_grads(
                inputs, vectors[targets], config.margin)
            epoch_loss += loss.sum()
            # a bag with no active negative has no term and passes no
            # gradient; input is the context mean, so its gradient splits
            # evenly over the bag's context
            has = np.bincount(terms[0], minlength=len(bi)) > 0
            m = n[has] - 1
            rows = np.concatenate((context[np.repeat(has, n - 1)], targets[terms]))
            grads = np.concatenate((np.repeat(g_in[has] / m[:, None], m, axis=0), g_t))
            # a row hit several times in the batch takes the sum of its
            # gradients, added in sequence into one fields x dim step
            cells = (rows[:, None] * config.dim + np.arange(config.dim)).ravel()
            step = np.bincount(cells, grads.ravel(), minlength=vectors.size)
            step = step.reshape(vectors.shape)
            vectors -= lr * step
            # max-norm projection of the rows with a nonzero update
            norms = np.linalg.norm(vectors, axis=1)
            over = (norms > 1.0) & step.any(axis=1)
            vectors[over] /= norms[over, None]
        epoch_losses.append(epoch_loss / n_bags)
        logger.info("epoch %d/%d: mean hinge loss %.6g", len(epoch_losses),
                    config.epochs, epoch_losses[-1])

    return FieldEmbedding(vectors, epoch_losses)


def proximity_emb(vectors: np.ndarray) -> np.ndarray:
    """phi_ff' = max(0, cos(vec_f, vec_f')) of the field vectors; symmetric,
    diagonal 1 for nonzero vectors, rows of +0.0 for zero ones. einsum's own
    loop sums each dot product in one fixed order, unlike a threaded BLAS, so
    phi is exactly symmetric and its bytes do not depend on the thread count."""
    norms = np.linalg.norm(vectors, axis=1)
    unit = vectors / np.where(norms > 0, norms, 1.0)[:, None]
    phi = np.clip(np.einsum("id,jd->ij", unit, unit), 0.0, None)
    np.fill_diagonal(phi, np.where(norms > 0, 1.0, 0.0))
    return phi
