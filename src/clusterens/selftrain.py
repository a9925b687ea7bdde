"""Self-training: a linear probe fitted to consensus pseudo-labels.

One training round only.  The classifier is a single affine map over the
rows of ``featstore.unit_rows``, optimized with momentum SGD and decoupled
weight decay, then used as the inference model.  Training stops at the
first epoch boundary (the point where the next sample permutation would be
drawn, every floor(n / batch) steps) at which the probe's argmax class
reproduces every pseudo-label; ``SelfTrainConfig.steps`` is a cap.  The
check runs before the permutation is drawn, so an early-stopped probe is
bit-identical to a fixed-budget run of the steps it ran, and a probe that
never fits runs the whole cap.  The probe has no standardizer affine, so
``CLF1`` holds the identity; another is folded into the probe on load.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import binfmt
from .errors import TrainingError
from .featstore import EmbeddingMatrix, NormStats, unit_rows
from .heads import CE_PROB_FLOOR, softmax
from .labeling import Labeling, canonicalize, u32_ids

CLASSIFIER_MAGIC = b"CLF1"


@dataclass(frozen=True)
class SelfTrainConfig:
    steps: int = 12500
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        # every float check is written so that NaN fails it
        if not (0.0 <= self.lr < math.inf and 0.0 <= self.weight_decay < math.inf):
            raise ValueError("lr and weight_decay must be finite and >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class FitHistory:
    """How one ``self_train`` call ran.  Not part of the ``CLF1`` checkpoint."""

    steps: int  # momentum-SGD steps run, at most ``SelfTrainConfig.steps``
    epoch_steps: int  # steps per epoch, floor(n / batch)
    # training-set agreement with the pseudo-labels at each epoch-boundary
    # check; entry e is taken after e epochs (entry 0: the zero weights)
    agreement_by_epoch: tuple[float, ...]
    stopped_early: bool  # the probe reproduced every pseudo-label

    @property
    def epochs(self) -> int:
        """Epochs begun, i.e. sample permutations drawn."""
        return -(-self.steps // self.epoch_steps)


@dataclass
class Classifier:
    """Affine d -> C map over standardized features, plus the id table that
    maps class indices back to the pseudo-label ids seen at fit time."""

    weight: np.ndarray  # (C, d)
    bias: np.ndarray  # (C,)
    norm: NormStats
    class_ids: np.ndarray  # (C,)
    history: FitHistory | None = None  # set by ``self_train``, not saved

    @property
    def num_classes(self) -> int:
        return self.weight.shape[0]

    @property
    def dim(self) -> int:
        return self.weight.shape[1]


def ce_loss_and_grads(
    weight: np.ndarray, bias: np.ndarray, s: np.ndarray, targets: np.ndarray
):
    """Mean softmax cross entropy over a standardized batch, with analytic
    gradients for the affine parameters."""
    b_count = s.shape[0]
    logits = s @ weight.T + bias
    probs = softmax(logits)
    picked = probs[np.arange(b_count), targets]
    loss = float(-np.log(np.maximum(picked, CE_PROB_FLOOR)).mean())
    dlogits = probs  # made the logit gradient in place; ``picked`` is a copy
    dlogits[np.arange(b_count), targets] -= 1.0
    # rows on the probability floor are clamped in the loss, so they carry
    # no gradient
    dlogits[picked <= CE_PROB_FLOOR] = 0.0
    dlogits /= b_count
    return loss, {"weight": dlogits.T @ s, "bias": dlogits.sum(axis=0)}


def self_train(
    features: EmbeddingMatrix, pseudo: Labeling, cfg: SelfTrainConfig = SelfTrainConfig()
) -> Classifier:
    """Fit the linear probe to pseudo-labels by mini-batch momentum SGD.

    Runs at most ``cfg.steps`` steps and stops at the first epoch boundary
    where the probe reproduces every pseudo-label (see the module
    docstring); ``Classifier.history`` records how it ran.  Deterministic
    under ``cfg.seed``; weights start at zero, and the standardization
    statistics are the features' own ``norm``.
    """
    if pseudo.n != features.n:
        raise ValueError(f"pseudo-labels cover {pseudo.n} samples, features hold {features.n}")
    targets = canonicalize(pseudo).labels - 1
    num_classes = pseudo.k
    # first-appearance order matches the canonical ids 1..C
    class_ids = pseudo.labels[np.sort(pseudo.coding.first)]

    s = unit_rows(features.data, features.norm)
    n, d = s.shape

    weight = np.zeros((num_classes, d))
    bias = np.zeros(num_classes)
    buf_w = np.zeros_like(weight)
    buf_b = np.zeros_like(bias)
    rng = np.random.default_rng(cfg.seed)
    batch = min(cfg.batch_size, n)

    agreement = []
    stopped_early = False
    order = np.empty(0, dtype=np.int64)
    cursor = 0
    step = 0
    while step < cfg.steps:
        if cursor + batch > order.size:
            hits = _argmax_class(s, weight, bias) == targets
            agreement.append(float(hits.mean()))
            if hits.all():
                stopped_early = True
                break
            order = rng.permutation(n)
            cursor = 0
        idx = order[cursor : cursor + batch]
        cursor += batch

        loss, grads = ce_loss_and_grads(weight, bias, s[idx], targets[idx])
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite self-train loss at step {step}", step=step)
        buf_w = cfg.momentum * buf_w + grads["weight"]
        buf_b = cfg.momentum * buf_b + grads["bias"]
        weight -= cfg.lr * buf_w + cfg.lr * cfg.weight_decay * weight
        bias -= cfg.lr * buf_b
        step += 1

    history = FitHistory(
        steps=step, epoch_steps=n // batch, agreement_by_epoch=tuple(agreement),
        stopped_early=stopped_early,
    )
    return Classifier(weight, bias, features.norm, class_ids, history)


def _argmax_class(s: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Class index per standardized row (ties to the lowest index)."""
    return np.argmax(s @ weight.T + bias, axis=1)


def predict(clf: Classifier, features: EmbeddingMatrix) -> Labeling:
    """Per-sample argmax class (ties to the lowest class index)."""
    if features.d != clf.dim:
        raise ValueError(f"dimension mismatch: features d={features.d}, classifier d={clf.dim}")
    s = unit_rows(features.data, clf.norm)
    return Labeling(clf.class_ids[_argmax_class(s, clf.weight, clf.bias)])


def save_classifier(clf: Classifier, path) -> None:
    """Write the ``CLF1`` checkpoint: dims, class ids, float64 parameters,
    standardizer statistics and the identity affine."""
    params = (clf.weight, clf.bias, clf.norm.mean, clf.norm.var,
              np.ones(clf.dim), np.zeros(clf.dim))
    binfmt.save(
        path, CLASSIFIER_MAGIC, struct.pack("<II", clf.num_classes, clf.dim),
        u32_ids(clf.class_ids), *(np.asarray(a, dtype="<f8") for a in params),
    )


def _parse_classifier(r: binfmt.Reader) -> Classifier:
    c, d = r.header("II")
    if c < 1 or d < 1:
        raise ValueError(f"invalid dimensions {c}x{d} in header")
    class_ids = r.array("<u4", c).astype(np.int64)
    weight = r.array("<f8", c, d)
    bias = r.array("<f8", c)
    mean, var, gamma, beta = r.array("<f8", 4, d)
    with np.errstate(over="ignore", invalid="ignore"):
        bias += weight @ beta
        weight *= gamma
    # a NaN weight row would win every argmax; a non-finite gamma or beta
    # leaves the folded probe non-finite (``NormStats`` checks the statistics)
    if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
        raise ValueError("a folded parameter is non-finite")
    return Classifier(weight=weight, bias=bias, norm=NormStats(mean, var), class_ids=class_ids)


def load_classifier(path) -> Classifier:
    """Read a ``CLF1`` checkpoint; any malformed file raises ``LoadError``."""
    return binfmt.load(path, CLASSIFIER_MAGIC, "classifier checkpoint", _parse_classifier)
