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
batch stream (head-specific RNG streams drive neighbor draws).  Each copy
of the parameters is one flat buffer, and the kernels take the dict of its
views ``weight``, ``bias``, ``gamma`` and ``beta_shift`` (``_param_views``).

The arithmetic runs as BLAS matrix products on the unit-standardized rows
``u = (z - mean) / sqrt(var + eps)`` of ``featstore.unit_rows``, rounded
once from float64 into float32.  The shared affine is folded into each
head, ``W (gamma*u + beta) + b = (W*gamma) u + (W beta + b)``, so no
standardized copy of a batch is ever made.  A training step stacks the
folded teacher and student of each head, each over its temperature, into
one (2C, d) matrix: logits / tau of both copies of all H heads on the
anchors are one ``(H*2C, d) @ (d, B)`` GEMM, and on each head's own
neighbor rows a batched ``(h, 2C, d) @ (h, d, m*B)`` matmul, one GEMM per
head.  Each head formula has this one batched implementation,
``composite_loss_and_grads``, which also returns the batch mean of the
teacher targets it trained against, the one target value training reads.

Training runs in float32: the unit rows, both parameter copies, the AdamW
moments and every per-step tensor.  Single precision is what the deep
clustering heads this objective comes from train in, and it halves the
bytes a step moves.  The PMI and CE terms are taken in the log domain
(log teacher targets, log-sum-exp over clusters, and the student's logits,
which softmax's shift invariance lets stand in for its log-softmax), since
the product of a confident student's and teacher's probabilities on
classes they disagree on underflows float32.  Sinkhorn-Knopp upcasts each
block's teacher logits itself and runs in float64, as a row and a column
scaling vector (two batched mat-vecs per iteration), and the log of its
output is taken once, before the cast.  The class-marginal EMA and the
HDB1 file stay float64.  A ``HeadBank`` holds the float32 buffers that
trained; a loaded one holds buffers filled from the file's float64 values,
their exact upcasts.  Labels are taken in float32, by one helper that
``train_heads`` runs on the unit rows it trained on and
``predict_labeling`` on the unit rows of one block of rows at a time.  The
kernels are dtype-generic: given float64 inputs they run in float64, which
is how the tests check them.

Each head draws its neighbors from its own random stream, one call of B*m
uniform numbers per step, so head h's draws do not depend on H.  No buffer
grows with H*B*d or H*C*n.  A training step gathers each head's neighbor
rows ``u[nbr[h]]`` once, one block of heads at a time into one reused
buffer, and the labelings come from the shared-rows GEMM one block of rows
at a time.  ``featstore.blocks`` cuts both: a block holds at most
``featstore.BLOCK_BYTES`` of gathered rows, or of standardized rows and
their logits.  A step's working set is u, O(H*C*B) per-sample tensors, one
block, the gradients (H*C*d), and either the stacked weights (H, 2C, d)
while the blocks run or, once they and the gather buffer are freed, the
(H, C, d) product of the anchor backward GEMM.  Each head block's float64
teacher targets are views of its Sinkhorn-Knopp output and live only while
the block runs, and the unfold makes its products one block of heads at a
time.  One float32 step call at the ``train_heavy`` shape (H=50, C=20,
d=384, B=256) peaks at 10.4 MiB of traced allocations, and at H=50, C=100,
d=768 at 62.3 MiB.  The anchor GEMM and its backward stay whole: the
stacked matmul runs one GEMM per head, so blocking heads is exact, while
splitting a GEMM can change the last bits of its products.  Labeling rows
are blocked by the bank's full head count, so one head is labeled in the
blocks, and with the products, of all heads.

Every per-sample tensor of a training step has the logical shape
(H, B, C) but is stored cluster-major, (H, C, B) in memory, so the batch
axis is contiguous.  C is small next to B, and NumPy ufuncs keep their
input's layout, so the reductions over C in softmax, Sinkhorn-Knopp and the
loss run as vector adds across B instead of walking rows of C numbers.
Each head block's logits are one (h, 2C, B + m*B) buffer, anchors then
draws; the student's on both sides of each pair are one (h, 2B, C) view.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from . import binfmt, kvtext
from .errors import TrainingError
from .featstore import EmbeddingMatrix, NormStats, blocks, unit_rows
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
        # every float check is written so that NaN fails it
        if not (0.0 < self.tau_student < math.inf and 0.0 < self.tau_teacher < math.inf):
            raise ValueError("temperatures must be finite and > 0")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if not 0.0 <= self.lambda_max < math.inf:
            raise ValueError("lambda_max must be finite and >= 0")
        if not 0.0 <= self.teacher_momentum <= 1.0:
            raise ValueError("teacher_momentum must lie in [0, 1]")
        if self.sk_iters < 0:
            raise ValueError("sk_iters must be >= 0")
        if self.epochs < 0 or self.warmup_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0.0 <= self.lr < math.inf and 0.0 <= self.weight_decay < math.inf):
            raise ValueError("lr and weight_decay must be finite and >= 0")
        if self.smoothing_m < 1:
            raise ValueError("smoothing_m must be >= 1 (1 disables smoothing)")


@dataclass(frozen=True)
class TrainReport:
    """Training-set labelings of every head and the (epochs, H) trajectory
    of their epoch-mean losses, from which the final losses and the best
    head are read."""

    per_head_labeling: tuple
    epoch_mean_loss: np.ndarray

    @property
    def per_head_loss(self) -> np.ndarray:
        """The last epoch's loss of every head; NaN after zero epochs."""
        if len(self.epoch_mean_loss):
            return self.epoch_mean_loss[-1]
        return np.full(self.epoch_mean_loss.shape[1], np.nan)

    @property
    def best_head(self) -> int:
        """The head of least last-epoch loss, the first of a tie; 0 after zero epochs."""
        return int(np.argmin(self.per_head_loss)) if len(self.epoch_mean_loss) else 0


def _exp_normalize(shifted: np.ndarray):
    """Softmax in place of logits already shifted so that each row's largest
    is 0, and the log of the row sums (keepdims)."""
    np.exp(shifted, out=shifted)
    total = shifted.sum(axis=-1, keepdims=True)
    shifted /= total
    return shifted, np.log(total, out=total)


def _softmax_lse(logits: np.ndarray, out=None):
    """Softmax along the last axis and its log-sum-exp (keepdims), guarded
    against overflow; an entry of -inf gets probability 0.  ``out`` (which
    may be ``logits``) receives the softmax."""
    top = logits.max(axis=-1, keepdims=True)
    e, total = _exp_normalize(np.subtract(logits, top, out=out))
    total += top
    return e, total


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax along the last axis, guarded against overflow."""
    return _softmax_lse(logits)[0]


def _param_views(h: int, c: int, d: int, flat=None, dtype=np.float64):
    """A flat copy of the parameters, ``flat`` or new of ``dtype``, and its
    named views in buffer order: ``weight`` (H, C, d), ``bias`` (H, C), then
    the standardizer affine ``gamma`` and ``beta_shift`` (d,) of all heads.
    Each view's ``base`` is ``flat``: a dict of views leads to its buffer."""
    w, b = h * c * d, h * c * (d + 1)
    flat = np.empty(b + 2 * d, dtype=dtype) if flat is None else flat
    return flat, {"weight": flat[:w].reshape(h, c, d), "bias": flat[w:b].reshape(h, c),
                  "gamma": flat[b : b + d], "beta_shift": flat[b + d :]}


def _fold(weight, bias, gamma, beta_shift, scale=1.0, out=(None, None)):
    """Fold the shared affine into heads (..., C, d), times ``scale``:
    ``(W*gamma, W beta + b) * scale``, into the arrays ``out`` if given."""
    w = np.multiply(weight, gamma * scale, out=out[0])
    b = np.add(weight @ beta_shift, bias, out=out[1])
    b *= scale
    return w, b


def _shared_logits(w_fold, b_fold, u):
    """Logits (H, n, C) of every folded head on shared rows u (n, d).

    One (H*C, d) @ (d, n) GEMM; the result is the transposed view of the
    cluster-major (H, C, n) product, so its batch axis is contiguous.
    """
    h, c, d = w_fold.shape
    a = (w_fold.reshape(h * c, d) @ u.T).reshape(h, c, -1)
    a += b_fold[..., None]
    return a.transpose(0, 2, 1)


def _own_logits(w_fold, b_fold, u_own, out=None):
    """Logits (H, n, C) of folded head h on its own rows u_own[h] (H, n, d).

    One batched (H, n, d) @ (H, d, C) matmul, which BLAS runs faster than
    the (H, C, d) @ (H, d, n) one at the training shapes; the bias add
    writes it cluster-major into ``out`` (H, C, n), new if not given, and
    this returns its transposed view, as ``_shared_logits`` does.
    """
    h, c, _ = w_fold.shape
    if out is None:
        out = np.empty((h, c, u_own.shape[1]), dtype=np.result_type(w_fold, u_own))
    np.add(np.matmul(u_own, w_fold.transpose(0, 2, 1)).transpose(0, 2, 1),
           b_fold[..., None], out=out)
    return out.transpose(0, 2, 1)


def sinkhorn_knopp(teacher_logit_batch: np.ndarray, iters: int) -> np.ndarray:
    """Center a logit batch toward uniform cluster usage.

    Exponentiates (row max subtracted first) into K, then alternates column
    normalization (columns sum to B/C) with row normalization (rows sum
    to 1) ``iters`` times; zero iterations reduce to a plain row softmax.
    The normalizations are kept as scaling vectors (Cuturi, Sinkhorn
    Distances, NeurIPS 2013): the result is diag(r) K diag(c), with per
    iteration ``c = (B/C) / (K^T r)`` and ``r = 1 / (K c)``, two batched
    mat-vecs, and K is scaled once at the end.  Works on any (..., B, C)
    stack of batches, upcast to float64 by the shift itself, so K is the one
    float64 copy of the input.  The result keeps the input's memory layout:
    given cluster-major storage (batch axis contiguous), as
    ``composite_loss_and_grads`` passes, both mat-vecs read K in its order.
    """
    if iters < 0:
        raise ValueError("iters must be >= 0")
    logits = np.asarray(teacher_logit_batch)
    if logits.ndim < 2 or logits.shape[-2] < 1:
        raise ValueError("need a nonempty (..., B, C) logit batch")
    # the max of the input's values is exact in float64, so this is the shift of the upcast
    k = np.subtract(logits, logits.max(axis=-1, keepdims=True), dtype=np.float64)
    np.exp(k, out=k)
    if iters == 0:
        k /= k.sum(axis=-1, keepdims=True)
        return k
    b, c = k.shape[-2], k.shape[-1]
    k_t = k.swapaxes(-1, -2)
    r = np.ones(k.shape[:-1] + (1,))  # (..., B, 1)
    for _ in range(iters):
        col = np.matmul(k_t, r)  # (..., C, 1)
        np.divide(b / c, col, out=col)
        r = np.matmul(k, col)
        np.reciprocal(r, out=r)
    k *= col.swapaxes(-1, -2)
    k *= r
    return k


def lambda_schedule(step: int, total_steps: int, lambda_max: float) -> float:
    """Cosine ramp of the CE weight from 0 at step 0 to lambda_max at the end."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lambda_max * (1.0 - np.cos(np.pi * step / total_steps)) / 2.0


def ema_update(teacher: np.ndarray, student: np.ndarray, momentum: float) -> np.ndarray:
    """Move ``teacher`` in place to momentum * teacher + (1 - momentum) * student
    elementwise; returns it."""
    if not 0.0 <= momentum <= 1.0:
        raise ValueError("momentum must lie in [0, 1]")
    if teacher.shape != student.shape:
        raise ValueError(f"shape mismatch: {teacher.shape} vs {student.shape}")
    # momentum 1 keeps the teacher bitwise fixed, momentum 0 copies the student
    if momentum == 0.0:
        teacher[...] = student
    elif momentum < 1.0:
        # momentum * (teacher - student) + student, with no temporary
        teacher -= student
        teacher *= momentum
        teacher += student
    return teacher


# ---------------------------------------------------------------------------
# vectorized loss + gradients (all heads at once)
# ---------------------------------------------------------------------------


def _block_targets(t_logits: np.ndarray, b_count: int, sk_iters: int):
    """One head block's float64 teacher targets (h, B, C) of its anchors and
    of their neighbors, stored cluster-major like ``t_logits``.

    ``t_logits`` (h, B + m*B, C) holds the teacher's logits / tau on the
    anchors, then on every draw, and is centered as one Sinkhorn-Knopp batch
    per head.  The anchors' targets are a view of its output, and so are the
    neighbors' for m = 1; for m > 1 they are the mean over the m draws.
    """
    qt = sinkhorn_knopp(t_logits, sk_iters)
    h, _, c = qt.shape
    draws = qt[:, b_count:].reshape(h, -1, b_count, c)
    return qt[:, :b_count], draws[:, 0] if draws.shape[1] == 1 else draws.mean(axis=1)


def _head_block(a, u_nb, log_p, out, *, b_count, sk_iters, beta, lam, scale):
    """The loss and gradients of one block of h heads; returns its per-head
    mean losses (h,).

    ``a`` (h, B + m*B, 2C) is the block's logit buffer, each head's teacher
    then student logits / tau on the anchors then every draw, ``u_nb``
    (h, m*B, d) its gathered draws and ``log_p`` (h, 1, C) the log class
    marginal.  ``out`` are the block's views of the step's batch marginal
    (h, C), the anchors' logit gradients (h, B, C) and the neighbor side's
    weight and bias gradients, which this writes.  Every temporary of the
    block, its teacher targets included, is freed on return.
    """
    marginal_out, da_x, g, d_bias = out
    h, _, c2 = a.shape
    c_count = c2 // 2
    dt = a.dtype
    log_floor = math.log(CE_PROB_FLOOR)

    qt_x, qt_xp = _block_targets(a[..., :c_count], b_count, sk_iters)
    np.mean(qt_x, axis=1, out=marginal_out)
    w = np.sum(qt_x * qt_xp, axis=-1, keepdims=True).astype(dt)  # (h, B, 1)
    c_hat = np.argmax(qt_xp, axis=-1)  # (h, B)
    at_hat = (np.arange(h)[:, None], np.arange(b_count), c_hat)

    # the student's logits / tau on the anchors and their first draws, the two
    # sides of each pair, (h, 2B, C), each row shifted so that its largest is 0
    s = a[:, : 2 * b_count, c_count:]
    s -= s.max(axis=-1, keepdims=True)
    s_at = s[:, :b_count][at_hat][..., None]

    # PMI terms: t = log sum_c y_c, log y = beta*(log q_s + log q_t) - log p with q_t
    # the other side's teacher.  Softmax is shift-invariant, so log q_s = s - lse(s)
    # enters y as s, and t = lse(beta*(s + log q_t) - log p) - beta*lse(s)
    y = np.empty((h, c_count, 2 * b_count), dtype=dt).transpose(0, 2, 1)
    with np.errstate(divide="ignore"):  # log q_t in float64, rounded to dt
        np.log(qt_xp, out=y[:, :b_count])
        np.log(qt_x, out=y[:, b_count:])
    y += s
    y *= beta
    y -= log_p
    qs, lse = _exp_normalize(s)
    r, t = _softmax_lse(y, out=y)  # r = y / sum_c y
    t -= beta * lse

    lq_at = s_at - lse[:, :b_count]  # log q_s at the teacher's class
    ce = -np.maximum(lq_at, log_floor)
    pair_loss = -0.5 * w * (t[:, :b_count] + t[:, b_count:]) + lam * ce  # (h, B, 1)

    # d(loss)/d(logits): beta * (y/S - q) / tau per PMI term, (q - onehot) / tau
    # for CE on the anchors, batch-mean; pairs sitting on the CE probability
    # floor contribute no CE gradient (the clamped loss is locally constant there)
    half_w = np.tile((-0.5 * beta * scale) * w, (1, 2, 1))  # on both sides of the pair
    ce_w = (lq_at > log_floor) * dt.type(lam * scale)
    r -= qs
    r *= half_w
    qs_x = qs[:, :b_count]
    qs_x[at_hat] -= 1.0  # q - onehot, exact for q near 1
    qs_x *= ce_w
    np.add(r[:, :b_count], qs_x, out=da_x)
    np.matmul(r[:, b_count:].transpose(0, 2, 1), u_nb[:, :b_count], out=g)
    d_bias[...] = r[:, b_count:].sum(axis=1)
    return pair_loss.mean(axis=(1, 2))


def composite_loss_and_grads(
    student: dict,
    teacher: dict,
    u_x: np.ndarray,
    u: np.ndarray,
    nbr: np.ndarray,
    marginal: np.ndarray,
    *,
    beta: float,
    tau_student: float,
    tau_teacher: float,
    sk_iters: int,
    lam: float,
):
    """Batch-mean composite loss, its analytic student gradients and the
    teacher targets' batch marginal, in one pass over each block of heads.

    ``student`` and ``teacher`` are parameter views (``_param_views``), ``u_x``
    (B, d) the unit anchor rows, ``u`` (n, d) the unit rows and ``nbr``
    (H, B, m) the rows of each head's m drawn neighbors of each anchor;
    ``marginal`` (H, C) is the clamped class marginal.  The computation runs
    in the dtype of ``u``.

    Logits / tau of both folded copies come from the stacked (H, 2C, d)
    weights, each copy scaled by its 1 / tau: one GEMM on the anchors, then
    per block of heads (``featstore.blocks`` over the heads' gathered rows)
    one gather of the draws ``u[nbr]`` into a reused buffer, draw-major, and
    one batched matmul on them into the block's logit buffer, after the
    anchors'.  Per head, the teacher's anchors and B*m draws are centered as
    one Sinkhorn-Knopp batch, and its neighbor targets are the mean over the
    m draws (``_block_targets``).  The student's (h, 2B, C) view holds the
    anchors and first draws, each side of a pair against the other side's
    teacher.  Its loss is taken in the log domain, ``log y = beta*(log q_s +
    log q_t) - log p`` summed by log-sum-exp over clusters, with the logits,
    shifted in place, for ``log q_s`` (softmax is shift-invariant), and CE on
    the anchor half (``_head_block``).  The backward pass contracts the logit
    gradients ``da`` against the unit rows, ``G = sum_b da (x) u`` (one GEMM
    for the anchors after the loop, one per head on the draw half), and
    unfolds: ``d_weight = G*gamma + d_bias (x) beta``, ``d_gamma = sum_{h,c}
    W*G / H`` and ``d_beta_shift = sum_h d_bias_h . W_h / H``.  The stacked
    weights, the anchors' logits and the gather buffer are freed before the
    anchor backward GEMM, and the unfold makes no (H, C, d) temporary.

    Returns (per-head mean losses (H,), grads, batch_marginal): grads are the
    views of one new flat buffer, ``weight`` and ``bias`` from each head's
    own loss and ``gamma``/``beta_shift`` averaged over heads;
    ``batch_marginal`` (H, C) is the float64 mean over the batch of the
    anchors' teacher targets, the one target value training reads.
    """
    weight = student["weight"]
    h_count, c_count, d = weight.shape
    _, b_count, m_draws = nbr.shape
    rows = b_count * m_draws
    dt = u.dtype
    # Python floats keep float32 arrays float32, where NumPy float64 scalars would not
    beta, lam, tau_student = float(beta), float(lam), float(tau_student)

    # (H, 2C, d): each head's folded teacher, then student, over its
    # temperature, so that the GEMMs give logits / tau
    w_stack = np.empty((h_count, 2 * c_count, d), dtype=dt)
    b_stack = np.empty((h_count, 2 * c_count), dtype=dt)
    for part, copy, tau in ((slice(0, c_count), teacher, float(tau_teacher)),
                            (slice(c_count, None), student, tau_student)):
        _fold(**copy, scale=1.0 / tau, out=(w_stack[:, part], b_stack[:, part]))
    a_x = _shared_logits(w_stack, b_stack, u_x)  # (H, B, 2C)
    log_p = np.log(marginal).astype(dt)[:, None, :]
    scale = 1.0 / (b_count * tau_student)

    losses = np.empty(h_count, dtype=dt)
    batch_marginal = np.empty((h_count, c_count))
    da_x = np.empty((h_count, c_count, b_count), dtype=dt).transpose(0, 2, 1)
    _, grads = _param_views(h_count, c_count, d, dtype=dt)
    g, d_bias = grads["weight"], grads["bias"]  # each head's neighbor side; the anchors' add on
    head_blocks = blocks(h_count, rows * d * dt.itemsize)
    buf = np.empty(((head_blocks[0].stop - head_blocks[0].start) * rows, d), dtype=dt)
    for hb in head_blocks:
        h = hb.stop - hb.start
        # indices come from validated neighbor sets; mode="raise" would buffer a copy
        u_nb = np.take(u, nbr[hb].transpose(0, 2, 1).reshape(-1), axis=0,
                       out=buf[: h * rows], mode="clip").reshape(h, rows, d)
        # the block's logits / tau of both copies: the anchors, then every draw
        a = np.empty((h, 2 * c_count, b_count + rows), dtype=dt).transpose(0, 2, 1)
        a[:, :b_count] = a_x[hb]
        _own_logits(w_stack[hb], b_stack[hb], u_nb, out=a[:, b_count:].transpose(0, 2, 1))
        out = (batch_marginal[hb], da_x[hb], g[hb], d_bias[hb])
        losses[hb] = _head_block(a, u_nb, log_p[hb], out, b_count=b_count, sk_iters=sk_iters,
                                 beta=beta, lam=lam, scale=scale)
    del w_stack, b_stack, a_x, buf, u_nb, a  # freed before the anchor backward GEMM

    g += (da_x.transpose(0, 2, 1).reshape(-1, b_count) @ u_x).reshape(weight.shape)
    d_bias += da_x.sum(axis=1)

    # the unfold, one block of heads at a time.  d_gamma adds the products W*G one
    # (h, c) row after another, as NumPy's sum of the whole (H, C, d) product does:
    # row 0 of a block's products carries the sum of the blocks before it
    d_gamma = grads["gamma"]
    unfold_blocks = blocks(h_count, c_count * d * dt.itemsize)
    prod = np.empty((1 + (unfold_blocks[0].stop - unfold_blocks[0].start) * c_count, d), dtype=dt)
    for i, hb in enumerate(unfold_blocks):
        terms = prod[: 1 + (hb.stop - hb.start) * c_count]
        np.multiply(weight[hb], g[hb], out=terms[1:].reshape(-1, c_count, d))
        if i:
            terms[0] = d_gamma
        np.add.reduce(terms[0 if i else 1 :], axis=0, out=d_gamma)
        g[hb] *= student["gamma"]  # unfolded in place into d_weight
        g[hb] += d_bias[hb, :, None] * student["beta_shift"]
    d_gamma /= h_count
    np.divide(d_bias.reshape(-1) @ weight.reshape(-1, d), h_count, out=grads["beta_shift"])
    return losses, grads, batch_marginal


class _AdamW:
    """Decoupled-weight-decay Adam with bias-corrected moment estimates.

    Weight decay applies to the leading ``decayed`` values of the flat
    parameters, the head weights (``_param_views``), never to biases or the
    shared affine.  Each in-place pass runs once over a whole flat buffer.
    """

    def __init__(self, params: np.ndarray, weight_decay: float, decayed: int):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.scratch = np.empty_like(params)
        self.t = 0
        self.weight_decay = weight_decay
        self.decayed = decayed

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        m, v, tmp = self.m, self.v, self.scratch
        m *= ADAM_BETA1
        m += np.multiply(grads, 1.0 - ADAM_BETA1, out=tmp)
        v *= ADAM_BETA2
        np.multiply(grads, grads, out=tmp)
        tmp *= 1.0 - ADAM_BETA2
        v += tmp
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.multiply(v, 1.0 / bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        np.divide(m, tmp, out=tmp)
        tmp *= lr / bc1
        params -= tmp
        params[: self.decayed] *= 1.0 - lr * self.weight_decay


@dataclass
class HeadBank:
    """Standardizer statistics, student and teacher parameters, class marginals.

    ``norm`` is the training features' ``EmbeddingMatrix.norm``, as in a
    ``Classifier``.  ``student`` and ``teacher`` map the parameter names of
    ``_param_views`` to arrays of its shapes; the teacher is the exponential
    moving average of the student.  In a trained or loaded bank, each copy is the views of
    one flat float32 buffer, which ``train_heads`` updates in place.
    """

    config: TrainConfig
    norm: NormStats
    student: dict
    teacher: dict
    marginal: np.ndarray  # (H, C)

    @property
    def num_heads(self) -> int:
        return self.student["weight"].shape[0]

    @property
    def num_clusters(self) -> int:
        return self.student["weight"].shape[1]

    @property
    def dim(self) -> int:
        return self.student["weight"].shape[2]


def _init_bank(cfg: TrainConfig, norm: NormStats, rng) -> HeadBank:
    """Untrained float32 student and teacher buffers: weights from N(0, INIT_SCALE^2),
    biases and ``beta_shift`` 0, ``gamma`` 1, and the teacher a copy of the student."""
    h, c, d = cfg.num_heads, cfg.num_clusters, norm.d
    flat, student = _param_views(h, c, d, dtype=np.float32)
    flat.fill(0.0)
    # the draws of rng.normal(0, INIT_SCALE) in float64, rounded once into the buffer
    np.multiply(rng.standard_normal(student["weight"].shape), INIT_SCALE, out=student["weight"])
    student["gamma"].fill(1.0)
    teacher = _param_views(h, c, d, flat.copy())[1]
    return HeadBank(cfg, norm, student, teacher, np.full((h, c), 1.0 / c))


def _draw_neighbors(head_rngs, anchors, sets: NeighborSets, sizes, m_draws: int) -> np.ndarray:
    """Rows (H, B, m) of the neighbors drawn for ``anchors``.  Head h draws
    uniform u in [0, 1) from its own stream, one call of B*m numbers, and
    takes the member at position floor(u * |S_x|) of the anchor's set: u < 1
    keeps the float64 product below |S_x|."""
    pos = np.empty((len(head_rngs), anchors.size, m_draws))
    for rng, out in zip(head_rngs, pos):
        rng.random(out=out)
    pos *= sizes[anchors, None]
    pos = pos.astype(np.int64)
    pos += sets.offsets[anchors, None]
    return sets.indices[pos]


def train_heads(
    features: EmbeddingMatrix, sets: NeighborSets, cfg: TrainConfig
) -> tuple[HeadBank, TrainReport]:
    """Train H clustering heads and report their training-set labelings.

    Per epoch and sample, one neighbor (``smoothing_m`` with smoothing) is
    drawn uniformly from the sample's set using a head-specific RNG stream;
    per batch, one ``composite_loss_and_grads`` call gives the student's
    loss and gradients against the Sinkhorn-Knopp centered teacher targets,
    and the batch mean of the anchors' targets; one AdamW step is taken,
    followed by the teacher EMA update and the marginal EMA update, which
    moves toward that batch mean.  Training runs in float32 and every
    per-sample tensor of a step is stored cluster-major (see the module
    docstring).
    The labelings of all heads come from the trained float32 parameters on
    the float32 unit rows, through the helper ``predict_labeling`` runs on
    one head; the returned bank holds the float32 buffers that trained.
    Identical configs produce bitwise-identical reports.
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

    bank = _init_bank(cfg, features.norm, init_rng)
    student_flat, teacher_flat = bank.student["weight"].base, bank.teacher["weight"].base
    optimizer = _AdamW(student_flat, cfg.weight_decay, decayed=bank.student["weight"].size)
    u = unit_rows(features.data, bank.norm, np.float32)

    h_count = cfg.num_heads
    m_draws = cfg.smoothing_m
    steps_per_epoch = -(-n // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    warmup_steps = cfg.warmup_epochs * steps_per_epoch

    epoch_loss = np.zeros((cfg.epochs, h_count))
    global_step = 0

    for epoch in range(cfg.epochs):
        order = batch_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            b_count = batch.size
            nbr = _draw_neighbors(head_rngs, batch, sets, sizes, m_draws)

            # numeric warnings are silenced because the finite check below
            # turns any divergence into a TrainingError
            lam = lambda_schedule(global_step, total_steps, cfg.lambda_max)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                losses, grads, batch_marginal = composite_loss_and_grads(
                    bank.student, bank.teacher, u_x=u[batch], u=u, nbr=nbr,
                    marginal=np.maximum(bank.marginal, MARGINAL_FLOOR), beta=cfg.beta,
                    tau_student=cfg.tau_student, tau_teacher=cfg.tau_teacher,
                    sk_iters=cfg.sk_iters, lam=lam,
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
            optimizer.step(student_flat, grads["weight"].base, lr)
            ema_update(teacher_flat, student_flat, cfg.teacher_momentum)
            # in place: a fresh small array each step would pin heap pages
            bank.marginal *= MARGINAL_MOMENTUM
            bank.marginal += (1.0 - MARGINAL_MOMENTUM) * batch_marginal

            epoch_loss[epoch] += losses * b_count
            global_step += 1
        epoch_loss[epoch] /= n

    epoch_loss.flags.writeable = False
    return bank, TrainReport(_head_labelings(bank.student, n, u.__getitem__), epoch_loss)


def _head_labelings(student: dict, n: int, unit, heads=slice(None)) -> tuple:
    """Argmax labelings of the student heads ``heads`` on n rows, in float32.

    ``unit(rows)`` gives the float32 unit rows of a slice of rows.  The
    parameters are cast to float32, which is exact for a bank trained by
    ``train_heads``, and the folded GEMM gives the logits one block of rows
    at a time.  The blocks are cut for every head of ``student``, whichever
    are labeled, so one head is labeled in the row blocks, and with the
    products, of all heads: a block's float32 logits of every head and its
    unit rows, float64 while standardized, fit ``featstore.BLOCK_BYTES``.
    A head with a non-finite logit is an error.  Labels are the argmax of
    the logits, which is that of ``softmax(logits / tau)`` for any tau > 0,
    ids 1..C, ties to the lowest class.
    """
    h_all, c_count, d = student["weight"].shape
    labeled = range(h_all)[heads]
    labels = np.empty((len(labeled), n), dtype=np.int64)
    finite = np.ones(len(labeled), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        params = (student["weight"][heads], student["bias"][heads],
                  student["gamma"], student["beta_shift"])
        folded = _fold(*(p.astype(np.float32, copy=False) for p in params))
        for rows in blocks(n, 4 * (h_all * c_count + 3 * d)):
            logits = _shared_logits(*folded, unit(rows))
            finite &= np.isfinite(logits).all(axis=(1, 2))
            labels[:, rows] = np.argmax(logits, axis=-1)
    if not finite.all():
        bad = labeled[int(np.argmin(finite))]
        raise ValueError(f"non-finite head logits in head {bad}")
    return tuple(Labeling(row + 1) for row in labels)


def predict_labeling(bank: HeadBank, head: int, features: EmbeddingMatrix) -> Labeling:
    """Argmax student labeling for one head, by the code ``train_heads`` labels
    with, on float32 unit rows standardized one block of rows at a time."""
    if not 0 <= head < bank.num_heads:
        raise ValueError(f"head {head} out of range [0, {bank.num_heads})")
    return _head_labelings(bank.student, features.n,
                           lambda rows: unit_rows(features.data[rows], bank.norm, np.float32),
                           slice(head, head + 1))[0]


# ---------------------------------------------------------------------------
# checkpoint (HDB1)
# ---------------------------------------------------------------------------


def config_to_text(cfg: TrainConfig) -> str:
    return kvtext.render((f.name, getattr(cfg, f.name)) for f in fields(cfg))


def config_from_text(text: str) -> TrainConfig:
    values = kvtext.parse(text.splitlines(), "config echo")
    types = get_type_hints(TrainConfig)
    if values.keys() != types.keys():
        raise ValueError(f"config echo keys: unknown {sorted(values.keys() - types.keys())}, "
                         f"missing {sorted(types.keys() - values.keys())}")
    return TrainConfig(**{key: types[key](raw) for key, raw in values.items()})


def save_head_bank(bank: HeadBank, path) -> None:
    """Write the ``HDB1`` checkpoint: config echo, shared stats/affine, then
    per-head student/teacher parameters and class marginal (float64 LE)."""
    cfg_bytes = config_to_text(bank.config).encode("utf-8")
    h = bank.num_heads
    copies = (bank.student, bank.teacher)
    shared = np.stack([bank.norm.mean, bank.norm.var,
                       *(p[k] for p in copies for k in ("gamma", "beta_shift"))])
    rows = np.concatenate([*(a.reshape(h, -1) for p in copies for a in (p["weight"], p["bias"])),
                           bank.marginal], axis=1)
    binfmt.save(
        path, HEADBANK_MAGIC, struct.pack("<I", len(cfg_bytes)), cfg_bytes,
        struct.pack("<III", h, bank.num_clusters, bank.dim),
        shared.astype("<f8", copy=False), rows.astype("<f8", copy=False),
    )


def _parse_head_bank(r: binfmt.Reader) -> HeadBank:
    (cfg_len,) = r.header("I")
    cfg = config_from_text(r.take(cfg_len, "config").decode("utf-8"))
    h, c, d = r.header("III")
    shared = r.array("<f8", 6, d)
    width = c * d + c  # one copy's weight and bias columns per head
    rows = r.array("<f8", h, 2 * width + c)
    # checked after the reads, which refuse a size the file cannot hold
    if 0 in (h, c, d) or (h, c) != (cfg.num_heads, cfg.num_clusters):
        raise ValueError(f"{h} heads of {c} clusters in {d} dimensions, the config echo "
                         f"declares {cfg.num_heads} heads of {cfg.num_clusters} clusters")
    # the float64 values, before the float32 cast; each comparison fails on NaN
    f32_max = float(np.finfo(np.float32).max)
    if not ((np.abs(rows[:, : 2 * width]) <= f32_max).all()
            and (np.abs(shared[2:]) <= f32_max).all()):
        raise ValueError("a head parameter is non-finite or beyond float32's range")

    def copy(i: int) -> dict:
        """Copy i (0 student, 1 teacher) in one float32 buffer: its columns of
        ``rows`` and its (gamma, beta_shift) rows of ``shared``."""
        lo = i * width
        views = _param_views(h, c, d, dtype=np.float32)[1]
        views["weight"][...] = rows[:, lo : lo + c * d].reshape(h, c, d)
        views["bias"][...] = rows[:, lo + c * d : lo + width]
        views["gamma"][...] = shared[2 + 2 * i]
        views["beta_shift"][...] = shared[3 + 2 * i]
        return views

    marginal = rows[:, 2 * width :].astype(np.float64)
    return HeadBank(cfg, NormStats(shared[0], shared[1]), copy(0), copy(1), marginal)


def load_head_bank(path) -> HeadBank:
    """Read an ``HDB1`` checkpoint; any malformed file raises ``LoadError``."""
    return binfmt.load(path, HEADBANK_MAGIC, "head-bank checkpoint", _parse_head_bank)
