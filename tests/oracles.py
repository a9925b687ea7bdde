"""Independent reference implementations used to check the package.

Everything here is deliberately brute force (enumeration, pair counting,
probability-form entropies) and shares no code with the implementations
under test.  The exception is the einsum formulation of the head loss,
gradients and teacher forward at the end: it is the formulation the GEMM
kernels replaced, kept verbatim with its own copy of the row softmax, and it
reuses the package's ``sinkhorn_knopp``, which has tests of its own.
"""

from itertools import combinations, permutations

import numpy as np

from clusterens.heads import CE_PROB_FLOOR, sinkhorn_knopp


def set_partitions(n):
    """All partitions of range(n) as canonical label tuples (1-based,
    first-appearance order), via restricted growth strings."""
    labels = [0] * n

    def rec(i, max_used):
        if i == n:
            yield tuple(v + 1 for v in labels)
            return
        for v in range(max_used + 2):
            labels[i] = v
            yield from rec(i + 1, max(max_used, v))

    yield from rec(0, -1)


def contingency_counts(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    ua = sorted(set(a.tolist()))
    ub = sorted(set(b.tolist()))
    table = np.zeros((len(ua), len(ub)), dtype=np.int64)
    for x, y in zip(a, b):
        table[ua.index(x), ub.index(y)] += 1
    return table


def brute_force_acc(pred, gt):
    """Best accuracy over every injective map from the smaller cluster set
    into the larger one."""
    table = contingency_counts(pred, gt)
    r, c = table.shape
    if r <= c:
        candidates = (
            sum(table[i, m[i]] for i in range(r)) for m in permutations(range(c), r)
        )
    else:
        candidates = (
            sum(table[m[j], j] for j in range(c)) for m in permutations(range(r), c)
        )
    return max(candidates) / len(pred)


def nmi_prob_form(a, b):
    """Probability-form NMI: Shannon MI over sqrt of Shannon entropies.

    Marginals come from integer counts so single-cluster entropies are
    exactly zero.
    """
    table = contingency_counts(a, b)
    n = int(table.sum())
    pi = table.sum(axis=1) / n
    pj = table.sum(axis=0) / n
    pij = table / n
    mi = 0.0
    for i in range(len(pi)):
        for j in range(len(pj)):
            if pij[i, j] > 0:
                mi += pij[i, j] * np.log(pij[i, j] / (pi[i] * pj[j]))
    ha = -sum(p * np.log(p) for p in pi if p > 0)
    hb = -sum(p * np.log(p) for p in pj if p > 0)
    if ha == 0.0 or hb == 0.0:
        return 0.0
    return mi / np.sqrt(ha * hb)


def ari_pair_counts(a, b):
    """ARI from direct pair counting: 2(ad - bc) / ((a+b)(b+d) + (a+c)(c+d))."""
    a = list(a)
    b = list(b)
    ss = sd = ds = dd = 0
    for i, j in combinations(range(len(a)), 2):
        same_a = a[i] == a[j]
        same_b = b[i] == b[j]
        if same_a and same_b:
            ss += 1
        elif same_a:
            sd += 1
        elif same_b:
            ds += 1
        else:
            dd += 1
    denom = (ss + sd) * (sd + dd) + (ss + ds) * (ds + dd)
    if denom == 0:
        return 1.0
    return 2.0 * (ss * dd - sd * ds) / denom


def brute_force_assignment(cost):
    """Minimum-cost one-to-one assignment by enumerating injections of the
    smaller dimension into the larger."""
    cost = np.asarray(cost, dtype=np.float64)
    r, c = cost.shape
    best = np.inf
    if r <= c:
        for m in permutations(range(c), r):
            best = min(best, sum(cost[i, m[i]] for i in range(r)))
    else:
        for m in permutations(range(r), c):
            best = min(best, sum(cost[m[j], j] for j in range(c)))
    return best


def brute_force_neighbor_sets(data, theta, k_min):
    """O(n^2) reference of thresholded cosine neighbor selection."""
    data = np.asarray(data, dtype=np.float64)
    n = len(data)
    floor = min(k_min, n - 1)
    out = []
    for x in range(n):
        sims = []
        for y in range(n):
            if y == x:
                continue
            u, v = data[x], data[y]
            s = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
            sims.append((min(1.0, max(-1.0, s)), y))
        sims.sort(key=lambda t: (-t[0], t[1]))
        selected = [y for s, y in sims if s >= theta]
        if len(selected) < floor:
            selected = [y for _, y in sims[:floor]]
        out.append(selected)
    return out


def softmax_logsumexp(logits):
    """Reference softmax through an explicit log-sum-exp."""
    logits = np.asarray(logits, dtype=np.float64)
    m = logits.max()
    lse = m + np.log(np.sum(np.exp(logits - m)))
    return np.exp(logits - lse)


# ---------------------------------------------------------------------------
# einsum head kernels (the formulation before the affine-folded GEMMs)
# ---------------------------------------------------------------------------


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax along the last axis, guarded against overflow."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _one_hot(idx: np.ndarray, c: int) -> np.ndarray:
    out = np.zeros(idx.shape + (c,))
    np.put_along_axis(out, idx[..., None], 1.0, axis=-1)
    return out


def einsum_loss_and_grads(
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

    Returns (per-head mean losses (H,), grads) where grads holds ``weight``
    (H, C, d), ``bias`` (H, C) from each head's own loss, and ``gamma``/
    ``beta_shift`` (d,) averaged over heads.
    """
    h_count, c_count, _ = weight.shape
    b_count = u_x.shape[0]

    s_x = u_x * gamma + beta_shift  # (B, d)
    s_xp = u_xp * gamma + beta_shift  # (H, B, d)
    a_x = np.einsum("hcd,bd->hbc", weight, s_x) + bias[:, None, :]
    a_xp = np.einsum("hcd,hbd->hbc", weight, s_xp) + bias[:, None, :]
    qs_x = softmax(a_x / tau_student)
    qs_xp = softmax(a_xp / tau_student)

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

    d_weight = np.einsum("hbc,bd->hcd", da_x, s_x) + np.einsum("hbc,hbd->hcd", da_xp, s_xp)
    d_bias = da_x.sum(axis=1) + da_xp.sum(axis=1)
    ds_x = np.einsum("hcd,hbc->hbd", weight, da_x)
    ds_xp = np.einsum("hcd,hbc->hbd", weight, da_xp)
    d_gamma = (np.einsum("hbd,bd->d", ds_x, u_x) + np.einsum("hbd,hbd->d", ds_xp, u_xp)) / h_count
    d_beta_shift = (ds_x.sum(axis=(0, 1)) + ds_xp.sum(axis=(0, 1))) / h_count

    grads = {
        "weight": d_weight,
        "bias": d_bias,
        "gamma": d_gamma,
        "beta_shift": d_beta_shift,
    }
    return losses, grads


def einsum_teacher_targets(
    teacher_w, teacher_b, teacher_gamma, teacher_beta, u_x, u_nb, *, tau, sk_iters
):
    """The einsum teacher forward: standardize, contract, Sinkhorn-Knopp,
    then average the m neighbor outputs.  u_x (B, d), u_nb (H, B, m, d)."""
    h_count, b_count, m_draws, _ = u_nb.shape
    s_t_x = u_x * teacher_gamma + teacher_beta
    s_t_nb = u_nb * teacher_gamma + teacher_beta  # (H,B,m,d)
    t_logits_x = (
        np.einsum("hcd,bd->hbc", teacher_w, s_t_x)
        + teacher_b[:, None, :]
    )
    t_logits_nb = (
        np.einsum("hcd,hbmd->hbmc", teacher_w, s_t_nb)
        + teacher_b[:, None, None, :]
    )
    stacked = np.concatenate(
        [t_logits_x, t_logits_nb.reshape(h_count, b_count * m_draws, -1)],
        axis=1,
    )
    qt_all = sinkhorn_knopp(stacked / tau, sk_iters)
    qt_x = qt_all[:, :b_count]
    qt_nb = (
        qt_all[:, b_count:]
        .reshape(h_count, b_count, m_draws, -1)
        .mean(axis=2)
    )
    return qt_x, qt_nb
