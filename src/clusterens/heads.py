"""Multi-head clustering heads trained on frozen features.

Each head is one affine map from standardized features to C cluster logits,
kept in a student copy (updated by AdamW) and a teacher copy (its
exponential moving average).  Per sample x and a neighbor x' drawn from its
precomputed set, the training objective is a weighted, symmetrized
pointwise-mutual-information term plus a cosine-scheduled cross-entropy
term against the teacher's pseudo-label for x'.  Teacher outputs are
centered per batch with a few Sinkhorn-Knopp iterations to even out
cluster usage.  All gradients are computed analytically in closed form.

Heads share a single learnable standardizer affine (gamma, beta) whose
gradient is averaged over heads; every other parameter is head-private, so
training H heads is equivalent to training them independently on the same
batch stream (head-specific RNG streams drive neighbor draws).

The arithmetic runs as BLAS matrix products on the unit-standardized rows
``u = (z - mean) / sqrt(var + eps)``.  The shared affine is folded into each
head, ``W (gamma*u + beta) + b = (W*gamma) u + (W beta + b)``, so no
standardized copy of a batch is ever made: logits of all H heads on shared
rows are one ``(n, d) @ (d, H*C)`` GEMM, and logits of each head on its own
neighbor rows are one batched ``(H, B, d) @ (H, d, C)`` matmul.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import LoadError, TrainingError
from .featstore import VAR_EPS, EmbeddingMatrix, NormStats, unit_rows
from .labeling import Labeling
from .neighbors import NeighborSets

HEADBANK_MAGIC = b"HDB1"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
MARGINAL_MOMENTUM = 0.9
MARGINAL_FLOOR = 1e-6
CE_PROB_FLOOR = 1e-12
INIT_SCALE = 0.005


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for training the clustering heads.

    Defaults target full-scale runs; desk-scale experiments usually override
    ``lr`` (e.g. 1e-3), ``epochs``, ``num_heads`` and ``warmup_epochs``.
    """

    num_clusters: int
    num_heads: int = 50
    tau_student: float = 0.1
    tau_teacher: float = 0.1
    beta: float = 0.6
    lambda_max: float = 0.5
    teacher_momentum: float = 0.996
    sk_iters: int = 3
    epochs: int = 400
    warmup_epochs: int = 100
    batch_size: int = 256
    lr: float = 1.25e-6
    weight_decay: float = 1e-4
    smoothing_m: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.num_clusters < 2:
            raise ValueError("num_clusters must be >= 2")
        if self.num_heads < 1:
            raise ValueError("num_heads must be >= 1")
        if self.tau_student <= 0 or self.tau_teacher <= 0:
            raise ValueError("temperatures must be > 0")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if self.lambda_max < 0:
            raise ValueError("lambda_max must be >= 0")
        if not 0.0 <= self.teacher_momentum <= 1.0:
            raise ValueError("teacher_momentum must lie in [0, 1]")
        if self.sk_iters < 0:
            raise ValueError("sk_iters must be >= 0")
        if self.epochs < 0 or self.warmup_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lr < 0 or self.weight_decay < 0:
            raise ValueError("lr and weight_decay must be >= 0")
        if self.smoothing_m < 1:
            raise ValueError("smoothing_m must be >= 1 (1 disables smoothing)")


@dataclass(frozen=True)
class HeadParams:
    """One head's affine map plus the standardizer it sits on."""

    weight: np.ndarray  # (C, d)
    bias: np.ndarray  # (C,)
    norm: NormStats


@dataclass(frozen=True)
class TrainReport:
    """Final-epoch losses and training-set labelings of every head.

    ``epoch_mean_loss`` keeps the (epochs, H) loss trajectory as a training
    diagnostic.
    """

    per_head_loss: np.ndarray
    per_head_labeling: tuple
    best_head: int
    epoch_mean_loss: np.ndarray = None


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax along the last axis, guarded against overflow."""
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _fold(weight, bias, gamma, beta_shift):
    """Fold the shared affine into heads (..., C, d): (W*gamma, W beta + b)."""
    return weight * gamma, weight @ beta_shift + bias


def _shared_logits(w_fold, b_fold, u):
    """Logits (H, n, C) of every folded head on shared rows u (n, d).

    One (n, d) @ (d, H*C) GEMM; the result is a transposed view of the
    (n, H, C) product.
    """
    a = np.tensordot(u, w_fold, axes=(1, 2))
    a += b_fold
    return a.transpose(1, 0, 2)


def _own_logits(w_fold, b_fold, u_own):
    """Logits (H, n, C) of folded head h on its own rows u_own[h] (H, n, d)."""
    a = np.matmul(u_own, w_fold.transpose(0, 2, 1))
    a += b_fold[:, None, :]
    return a


def head_forward(params: HeadParams, z: np.ndarray, tau: float) -> np.ndarray:
    """softmax((W . standardize(z) + b) / tau) for one vector or a batch."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    norm = params.norm
    u = unit_rows(z, norm)
    with np.errstate(over="ignore", invalid="ignore"):
        folded = _fold(params.weight[None], params.bias[None], norm.gamma, norm.beta)
        logits = _shared_logits(*folded, u.reshape(-1, norm.d))[0]
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite head logits")
    logits /= tau
    return softmax(logits).reshape(u.shape[:-1] + (params.bias.size,))


def sinkhorn_knopp(teacher_logit_batch: np.ndarray, iters: int) -> np.ndarray:
    """Center a logit batch toward uniform cluster usage.

    Exponentiates (row max subtracted first), then alternates column
    normalization (columns sum to B/C) with row normalization (rows sum
    to 1) ``iters`` times; zero iterations reduce to a plain row softmax.
    Works on any (..., B, C) stack of batches.
    """
    if iters < 0:
        raise ValueError("iters must be >= 0")
    logits = np.asarray(teacher_logit_batch, dtype=np.float64)
    if logits.ndim < 2 or logits.shape[-2] < 1:
        raise ValueError("need a nonempty (..., B, C) logit batch")
    m = np.exp(logits - logits.max(axis=-1, keepdims=True))
    b, c = m.shape[-2], m.shape[-1]
    for _ in range(iters):
        m = m / m.sum(axis=-2, keepdims=True) * (b / c)
        m = m / m.sum(axis=-1, keepdims=True)
    if iters == 0:
        m = m / m.sum(axis=-1, keepdims=True)
    return m


def pmi_pair_loss(
    qs_x: np.ndarray,
    qs_xp: np.ndarray,
    qt_x: np.ndarray,
    qt_xp: np.ndarray,
    p_c: np.ndarray,
    beta: float,
) -> float:
    """Weighted, symmetrized pointwise-MI loss for one (x, x') pair.

    The teacher-agreement weight ``w = sum_c qt_x(c) qt_xp(c)`` suppresses
    pairs the teacher considers mismatched; the two student terms use the
    partner's teacher output, with the class marginal ``p_c`` in the
    denominator and the sharpening exponent ``beta`` applied to the
    student-teacher product.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    qs_x, qs_xp, qt_x, qt_xp, p_c = (
        np.asarray(a, dtype=np.float64) for a in (qs_x, qs_xp, qt_x, qt_xp, p_c)
    )
    if np.any(p_c <= 0.0):
        raise ValueError("class marginal must be strictly positive (clamp upstream)")
    w = float(qt_x @ qt_xp)
    t1 = np.log(np.sum((qs_x * qt_xp) ** beta / p_c))
    t2 = np.log(np.sum((qs_xp * qt_x) ** beta / p_c))
    loss = -w * 0.5 * (t1 + t2)
    if not np.isfinite(loss):
        raise ValueError("non-finite pair loss")
    return float(loss)


def ce_term(qs_x: np.ndarray, qt_xp: np.ndarray) -> float:
    """Cross entropy against the teacher's argmax pseudo-label for x'."""
    qs_x = np.asarray(qs_x, dtype=np.float64)
    qt_xp = np.asarray(qt_xp, dtype=np.float64)
    c_hat = int(np.argmax(qt_xp))
    return float(-np.log(max(qs_x[c_hat], CE_PROB_FLOOR)))


def lambda_schedule(step: int, total_steps: int, lambda_max: float) -> float:
    """Cosine ramp of the CE weight from 0 at step 0 to lambda_max at the end."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lambda_max * (1.0 - np.cos(np.pi * step / total_steps)) / 2.0


def smooth_teacher(qt_list: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise mean of teacher outputs across several drawn neighbors."""
    if len(qt_list) == 0:
        raise ValueError("need at least one teacher output to smooth")
    return np.mean(np.asarray(qt_list, dtype=np.float64), axis=0)


def ema_update(teacher: np.ndarray, student: np.ndarray, momentum: float) -> np.ndarray:
    """momentum * teacher + (1 - momentum) * student, elementwise."""
    if not 0.0 <= momentum <= 1.0:
        raise ValueError("momentum must lie in [0, 1]")
    teacher = np.asarray(teacher, dtype=np.float64)
    student = np.asarray(student, dtype=np.float64)
    if teacher.shape != student.shape:
        raise ValueError(f"shape mismatch: {teacher.shape} vs {student.shape}")
    # endpoints are exact copies so momentum 1 keeps the teacher bitwise fixed
    if momentum == 1.0:
        return teacher.copy()
    if momentum == 0.0:
        return student.copy()
    return momentum * teacher + (1.0 - momentum) * student


# ---------------------------------------------------------------------------
# vectorized loss + gradients (all heads at once)
# ---------------------------------------------------------------------------


def _one_hot(idx: np.ndarray, c: int) -> np.ndarray:
    out = np.zeros(idx.shape + (c,))
    np.put_along_axis(out, idx[..., None], 1.0, axis=-1)
    return out


def composite_loss_and_grads(
    weight: np.ndarray,
    bias: np.ndarray,
    gamma: np.ndarray,
    beta_shift: np.ndarray,
    u_x: np.ndarray,
    u_xp: np.ndarray,
    qt_x: np.ndarray,
    qt_xp: np.ndarray,
    marginal: np.ndarray,
    *,
    beta: float,
    tau_student: float,
    lam: float,
):
    """Batch-mean composite loss and its analytic student gradients.

    Shapes: ``weight`` (H, C, d), ``bias`` (H, C), ``gamma``/``beta_shift``
    (d,) shared across heads, ``u_x`` (B, d) pre-standardized anchor rows,
    ``u_xp`` (H, B, d) per-head neighbor rows, teacher outputs (H, B, C)
    (``qt_xp`` already smoothed when several neighbors are drawn), and the
    clamped class marginal (H, C).

    The affine is folded into the heads, so the forward pass is one
    (B, d) @ (d, H*C) GEMM for the anchors and one batched matmul for the
    neighbors.  The backward pass contracts the logit gradients ``da``
    against the unit rows, ``G = sum_b da (x) u`` (one GEMM per side), and
    unfolds: ``d_weight = G*gamma + d_bias (x) beta``, ``d_gamma =
    sum_{h,c} W*G / H`` and ``d_beta_shift = sum_h d_bias_h . W_h / H``.

    Returns (per-head mean losses (H,), grads) where grads holds ``weight``
    (H, C, d), ``bias`` (H, C) from each head's own loss, and ``gamma``/
    ``beta_shift`` (d,) averaged over heads.
    """
    h_count, c_count, d = weight.shape
    b_count = u_x.shape[0]

    w_fold, b_fold = _fold(weight, bias, gamma, beta_shift)
    a_x = _shared_logits(w_fold, b_fold, u_x)  # (H, B, C)
    a_xp = _own_logits(w_fold, b_fold, u_xp)
    a_x /= tau_student
    a_xp /= tau_student
    qs_x = softmax(a_x)
    qs_xp = softmax(a_xp)

    w = np.sum(qt_x * qt_xp, axis=-1)  # (H, B)
    pm = marginal[:, None, :]
    y1 = (qs_x * qt_xp) ** beta / pm
    y2 = (qs_xp * qt_x) ** beta / pm
    s1 = y1.sum(axis=-1)
    s2 = y2.sum(axis=-1)
    t1 = np.log(s1)
    t2 = np.log(s2)

    c_hat = np.argmax(qt_xp, axis=-1)  # (H, B)
    q_at = np.take_along_axis(qs_x, c_hat[..., None], axis=-1)[..., 0]
    ce = -np.log(np.maximum(q_at, CE_PROB_FLOOR))

    pair_loss = -w * 0.5 * (t1 + t2) + lam * ce  # (H, B)
    losses = pair_loss.mean(axis=1)

    # d(loss)/d(logits / tau): beta * (y/S - q) per PMI term, q - onehot for CE;
    # pairs sitting on the CE probability floor contribute no CE gradient
    # (the clamped loss is locally constant there)
    half_w = (-0.5 * w)[..., None]
    ce_active = (q_at > CE_PROB_FLOOR)[..., None]
    dg_x = half_w * beta * (y1 / s1[..., None] - qs_x) + (lam * ce_active) * (
        qs_x - _one_hot(c_hat, c_count)
    )
    dg_xp = half_w * beta * (y2 / s2[..., None] - qs_xp)
    scale = 1.0 / (b_count * tau_student)
    da_x = dg_x * scale
    da_xp = dg_xp * scale

    g = np.tensordot(da_x, u_x, axes=(1, 0))  # (H, C, d)
    g += np.matmul(da_xp.transpose(0, 2, 1), u_xp)
    d_bias = da_x.sum(axis=1) + da_xp.sum(axis=1)
    d_weight = g * gamma + d_bias[..., None] * beta_shift
    d_gamma = (weight * g).sum(axis=(0, 1)) / h_count
    d_beta_shift = d_bias.reshape(-1) @ weight.reshape(-1, d) / h_count

    grads = {
        "weight": d_weight,
        "bias": d_bias,
        "gamma": d_gamma,
        "beta_shift": d_beta_shift,
    }
    return losses, grads


def teacher_targets(
    weight: np.ndarray,
    bias: np.ndarray,
    gamma: np.ndarray,
    beta_shift: np.ndarray,
    u_x: np.ndarray,
    u_nb: np.ndarray,
    *,
    tau: float,
    sk_iters: int,
):
    """Sinkhorn-Knopp-centered teacher outputs for anchors and neighbors.

    ``u_x`` (B, d) holds the unit anchor rows and ``u_nb`` (H, B, m, d) each
    head's m drawn neighbor rows.  Per head, the B anchors and B*m neighbors
    are centered as one batch.  Returns ``qt_x`` (H, B, C) and ``qt_xp``
    (H, B, C), the mean over the m neighbors.
    """
    h_count, b_count, m_draws, d = u_nb.shape
    w_fold, b_fold = _fold(weight, bias, gamma, beta_shift)
    stacked = np.concatenate(
        [
            _shared_logits(w_fold, b_fold, u_x),
            _own_logits(w_fold, b_fold, u_nb.reshape(h_count, b_count * m_draws, d)),
        ],
        axis=1,
    )
    qt_all = sinkhorn_knopp(stacked / tau, sk_iters)
    qt_x = qt_all[:, :b_count]
    qt_xp = qt_all[:, b_count:].reshape(h_count, b_count, m_draws, -1).mean(axis=2)
    return qt_x, qt_xp


class _AdamW:
    """Decoupled-weight-decay Adam with bias-corrected moment estimates."""

    def __init__(self, params: dict, weight_decay: float, decay_keys: frozenset):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0
        self.weight_decay = weight_decay
        self.decay_keys = decay_keys

    def step(self, params: dict, grads: dict, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for key, p in params.items():
            g = grads[key]
            m = self.m[key]
            v = self.v[key]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            if key in self.decay_keys:
                p -= lr * self.weight_decay * p


@dataclass
class HeadBank:
    """Student/teacher parameters, optimizer state and class marginals."""

    config: TrainConfig
    mean: np.ndarray
    var: np.ndarray
    student_w: np.ndarray  # (H, C, d)
    student_b: np.ndarray  # (H, C)
    student_gamma: np.ndarray  # (d,) shared across heads
    student_beta: np.ndarray
    teacher_w: np.ndarray
    teacher_b: np.ndarray
    teacher_gamma: np.ndarray
    teacher_beta: np.ndarray
    marginal: np.ndarray  # (H, C)
    optimizer: _AdamW | None = None

    @property
    def num_heads(self) -> int:
        return self.student_w.shape[0]

    @property
    def num_clusters(self) -> int:
        return self.student_w.shape[1]

    @property
    def dim(self) -> int:
        return self.student_w.shape[2]

    def _norm(self, gamma: np.ndarray, beta: np.ndarray) -> NormStats:
        return NormStats(mean=self.mean, var=self.var, gamma=gamma, beta=beta)

    def student_params(self, head: int) -> HeadParams:
        self._check_head(head)
        return HeadParams(
            weight=self.student_w[head],
            bias=self.student_b[head],
            norm=self._norm(self.student_gamma, self.student_beta),
        )

    def teacher_params(self, head: int) -> HeadParams:
        self._check_head(head)
        return HeadParams(
            weight=self.teacher_w[head],
            bias=self.teacher_b[head],
            norm=self._norm(self.teacher_gamma, self.teacher_beta),
        )

    def _check_head(self, head: int) -> None:
        if not 0 <= head < self.num_heads:
            raise ValueError(f"head {head} out of range [0, {self.num_heads})")


def _init_bank(cfg: TrainConfig, mean: np.ndarray, var: np.ndarray, rng) -> HeadBank:
    h, c, d = cfg.num_heads, cfg.num_clusters, mean.size
    student_w = rng.normal(0.0, INIT_SCALE, size=(h, c, d))
    bank = HeadBank(
        config=cfg,
        mean=mean.copy(),
        var=var.copy(),
        student_w=student_w,
        student_b=np.zeros((h, c)),
        student_gamma=np.ones(d),
        student_beta=np.zeros(d),
        teacher_w=student_w.copy(),
        teacher_b=np.zeros((h, c)),
        teacher_gamma=np.ones(d),
        teacher_beta=np.zeros(d),
        marginal=np.full((h, c), 1.0 / c),
    )
    params = {
        "weight": bank.student_w,
        "bias": bank.student_b,
        "gamma": bank.student_gamma,
        "beta_shift": bank.student_beta,
    }
    # decay only the head weight matrices, never biases or the affine
    bank.optimizer = _AdamW(params, cfg.weight_decay, frozenset({"weight"}))
    return bank


def train_heads(
    features: EmbeddingMatrix, sets: NeighborSets, cfg: TrainConfig
) -> tuple[HeadBank, TrainReport]:
    """Train H clustering heads and report their training-set labelings.

    Per epoch and sample, one neighbor (``smoothing_m`` with smoothing) is
    drawn uniformly from the sample's set using a head-specific RNG stream;
    teacher targets are Sinkhorn-Knopp centered per batch; one AdamW step is
    taken per batch, followed by the teacher EMA update and the marginal
    EMA update.  Identical configs produce bitwise-identical reports.
    """
    n = features.n
    if sets.n != n:
        raise ValueError(f"neighbor sets cover {sets.n} samples, features hold {n}")
    sizes = sets.sizes()
    if (sizes == 0).any():
        empty = int(np.nonzero(sizes == 0)[0][0])
        raise ValueError(f"sample {empty} has an empty neighbor set; cannot draw pairs")

    seed_seq = np.random.SeedSequence(cfg.seed)
    init_rng, batch_rng, *head_seqs = seed_seq.spawn(cfg.num_heads + 2)
    init_rng = np.random.default_rng(init_rng)
    batch_rng = np.random.default_rng(batch_rng)
    head_rngs = [np.random.default_rng(s) for s in head_seqs]

    mean = features.data.mean(axis=0)
    var = np.maximum(features.data.var(axis=0), VAR_EPS)
    bank = _init_bank(cfg, mean, var, init_rng)
    u = unit_rows(features.data, bank._norm(bank.student_gamma, bank.student_beta))

    offsets, flat = sets.to_csr()
    h_count = cfg.num_heads
    m_draws = cfg.smoothing_m
    steps_per_epoch = -(-n // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    warmup_steps = cfg.warmup_epochs * steps_per_epoch

    params = {
        "weight": bank.student_w,
        "bias": bank.student_b,
        "gamma": bank.student_gamma,
        "beta_shift": bank.student_beta,
    }
    epoch_loss = np.zeros((cfg.epochs, h_count))
    global_step = 0

    for epoch in range(cfg.epochs):
        order = batch_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            b_count = batch.size

            counts_b = sizes[batch]
            off_b = offsets[batch]
            nbr = np.empty((h_count, b_count, m_draws), dtype=np.int64)
            for h in range(h_count):
                r = head_rngs[h].integers(0, counts_b[:, None], size=(b_count, m_draws))
                nbr[h] = flat[off_b[:, None] + r]

            # teacher targets (no gradient): SK-centered over anchors+neighbors;
            # numeric warnings are silenced because the finite check below
            # turns any divergence into a TrainingError
            lam = lambda_schedule(global_step, total_steps, cfg.lambda_max)
            u_x = u[batch]
            u_nb = u[nbr]  # (H, B, m, d); the student sees the first draw
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                qt_x, qt_nb = teacher_targets(
                    bank.teacher_w,
                    bank.teacher_b,
                    bank.teacher_gamma,
                    bank.teacher_beta,
                    u_x,
                    u_nb,
                    tau=cfg.tau_teacher,
                    sk_iters=cfg.sk_iters,
                )
                losses, grads = composite_loss_and_grads(
                    bank.student_w,
                    bank.student_b,
                    bank.student_gamma,
                    bank.student_beta,
                    u_x,
                    u_nb[:, :, 0],
                    qt_x,
                    qt_nb,
                    np.maximum(bank.marginal, MARGINAL_FLOOR),
                    beta=cfg.beta,
                    tau_student=cfg.tau_student,
                    lam=lam,
                )
            if not np.all(np.isfinite(losses)):
                bad = int(np.nonzero(~np.isfinite(losses))[0][0])
                raise TrainingError(
                    f"non-finite loss in head {bad} at step {global_step}",
                    head=bad,
                    step=global_step,
                )

            lr = cfg.lr
            if warmup_steps > 0:
                lr *= min(1.0, (global_step + 1) / warmup_steps)
            bank.optimizer.step(params, grads, lr)

            mom = cfg.teacher_momentum
            bank.teacher_w = ema_update(bank.teacher_w, bank.student_w, mom)
            bank.teacher_b = ema_update(bank.teacher_b, bank.student_b, mom)
            bank.teacher_gamma = ema_update(bank.teacher_gamma, bank.student_gamma, mom)
            bank.teacher_beta = ema_update(bank.teacher_beta, bank.student_beta, mom)
            bank.marginal = MARGINAL_MOMENTUM * bank.marginal + (
                1.0 - MARGINAL_MOMENTUM
            ) * qt_x.mean(axis=1)

            epoch_loss[epoch] += losses * b_count
            global_step += 1
        epoch_loss[epoch] /= n

    if cfg.epochs > 0:
        per_head_loss = epoch_loss[-1].copy()
        best_head = int(np.argmin(per_head_loss))
    else:
        per_head_loss = np.full(h_count, np.nan)
        best_head = 0

    labelings = tuple(predict_labeling(bank, h, features) for h in range(h_count))
    per_head_loss.flags.writeable = False
    epoch_loss.flags.writeable = False
    report = TrainReport(
        per_head_loss=per_head_loss,
        per_head_labeling=labelings,
        best_head=best_head,
        epoch_mean_loss=epoch_loss,
    )
    return bank, report


def predict_labeling(bank: HeadBank, head: int, features: EmbeddingMatrix) -> Labeling:
    """Argmax student labeling for one head (ids 1..C, ties to lowest class)."""
    probs = head_forward(bank.student_params(head), features.data, bank.config.tau_student)
    return Labeling(np.argmax(probs, axis=-1) + 1)


# ---------------------------------------------------------------------------
# checkpoint (HDB1)
# ---------------------------------------------------------------------------


_INT_FIELDS = frozenset(
    {"num_clusters", "num_heads", "sk_iters", "epochs", "warmup_epochs",
     "batch_size", "smoothing_m", "seed"}
)


def config_to_text(cfg: TrainConfig) -> str:
    lines = [f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> TrainConfig:
    values = {}
    names = {f.name for f in fields(TrainConfig)}
    for line in text.strip().splitlines():
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in names:
            raise LoadError(f"unknown train-config key {key!r} in checkpoint")
        values[key] = int(raw) if key in _INT_FIELDS else float(raw)
    missing = names - values.keys()
    if missing:
        raise LoadError(f"checkpoint config missing keys: {sorted(missing)}")
    return TrainConfig(**values)


def save_head_bank(bank: HeadBank, path) -> None:
    """Write the ``HDB1`` checkpoint: config echo, shared stats/affine, then
    per-head student/teacher parameters and class marginal (float64 LE)."""
    cfg_bytes = config_to_text(bank.config).encode("utf-8")
    with open(path, "wb") as f:
        f.write(HEADBANK_MAGIC)
        f.write(struct.pack("<I", len(cfg_bytes)))
        f.write(cfg_bytes)
        f.write(struct.pack("<III", bank.num_heads, bank.num_clusters, bank.dim))
        for arr in (
            bank.mean,
            bank.var,
            bank.student_gamma,
            bank.student_beta,
            bank.teacher_gamma,
            bank.teacher_beta,
        ):
            f.write(np.asarray(arr, dtype="<f8").tobytes())
        for h in range(bank.num_heads):
            for arr in (
                bank.student_w[h],
                bank.student_b[h],
                bank.teacher_w[h],
                bank.teacher_b[h],
                bank.marginal[h],
            ):
                f.write(np.asarray(arr, dtype="<f8").tobytes())


def load_head_bank(path) -> HeadBank:
    """Read an ``HDB1`` checkpoint; any malformed file raises ``LoadError``.

    Declared sizes are checked against the bytes actually present before
    anything is allocated.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def take(count: int) -> bytes:
            if count > size - f.tell():
                raise LoadError(f"{path}: truncated checkpoint")
            return f.read(count)

        if f.read(4) != HEADBANK_MAGIC:
            raise LoadError(f"{path}: not a head-bank checkpoint")
        (cfg_len,) = struct.unpack("<I", take(4))
        try:
            cfg = config_from_text(take(cfg_len).decode("utf-8"))
        except ValueError as exc:  # bad UTF-8, numbers or config values
            raise LoadError(f"{path}: malformed checkpoint config: {exc}") from None
        h, c, d = struct.unpack("<III", take(12))
        per_head = 2 * c * d + 3 * c
        payload = 8 * (6 * d + h * per_head)
        if size - f.tell() != payload:
            raise LoadError(
                f"{path}: header declares {payload} payload bytes, file holds {size - f.tell()}"
            )
        values = np.frombuffer(f.read(payload), dtype="<f8")
    shared = values[: 6 * d].reshape(6, d).astype(np.float64)
    rows = values[6 * d :].reshape(h, per_head)
    cd = c * d

    def block(lo: int, hi: int, *shape) -> np.ndarray:
        return rows[:, lo:hi].reshape(h, *shape).astype(np.float64)

    return HeadBank(
        config=cfg,
        mean=shared[0],
        var=shared[1],
        student_w=block(0, cd, c, d),
        student_b=block(cd, cd + c, c),
        student_gamma=shared[2],
        student_beta=shared[3],
        teacher_w=block(cd + c, 2 * cd + c, c, d),
        teacher_b=block(2 * cd + c, 2 * cd + 2 * c, c),
        teacher_gamma=shared[4],
        teacher_beta=shared[5],
        marginal=block(2 * cd + 2 * c, per_head, c),
    )
