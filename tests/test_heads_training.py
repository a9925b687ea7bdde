import dataclasses
import tracemalloc

import numpy as np
import pytest

from clusterens import (
    EmbeddingMatrix,
    SynthSpec,
    TrainConfig,
    build_neighbor_sets,
    clustering_accuracy,
    gen_synthetic,
    heads,
    predict_labeling,
    train_heads,
)
from clusterens.errors import LoadError, TrainingError
from clusterens.heads import (
    CE_PROB_FLOOR,
    composite_loss_and_grads,
    load_head_bank,
    save_head_bank,
    sinkhorn_knopp,
    teacher_targets,
)
from clusterens.neighbors import NeighborSets

from clusterens.featstore import NormStats, unit_rows

from oracles import (
    ce_term,
    einsum_loss_and_grads,
    einsum_teacher_targets,
    pmi_pair_loss,
    softmax,
    softmax_logsumexp,
    unfolded_head_probs,
)


def indexed(rows):
    """Gathered rows (H, B, [m,] d) in the kernels' form: unit rows u and
    row ids nbr with ``u[nbr] == rows``."""
    ids = np.arange(rows[..., 0].size).reshape(rows.shape[:-1])
    return rows.reshape(-1, rows.shape[-1]), ids


def kernel_args(args):
    """Loss arguments with gathered neighbor rows, as the oracles take them,
    in the form ``composite_loss_and_grads`` takes them."""
    *params, u_x, u_xp, qt_x, qt_xp, marginal = args
    return (*params, u_x, *indexed(u_xp), qt_x, qt_xp, marginal)


def small_cfg(**overrides):
    base = dict(
        num_clusters=4,
        num_heads=3,
        epochs=8,
        warmup_epochs=1,
        batch_size=32,
        lr=1e-3,
        seed=5,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def trained_run():
    m, labels = gen_synthetic(SynthSpec(n=160, d=16, k=4, separation=20.0, seed=21))
    sets = build_neighbor_sets(m, 0.3, 5)
    cfg = small_cfg(epochs=25)
    bank, report = train_heads(m, sets, cfg)
    return m, labels, sets, cfg, bank, report


class TestGradientCheck:
    def _random_instance(self, rng):
        d = int(rng.integers(2, 9))
        c = int(rng.integers(2, 6))
        b = int(rng.integers(1, 5))
        args = (
            rng.normal(0, 0.4, (1, c, d)),
            rng.normal(0, 0.4, (1, c)),
            rng.normal(1, 0.2, d),
            rng.normal(0, 0.2, d),
            rng.normal(0, 1, (b, d)),
            *indexed(rng.normal(0, 1, (1, b, d))),
            sinkhorn_knopp(rng.normal(0, 1, (1, b, c)) / 0.3, 3),
            sinkhorn_knopp(rng.normal(0, 1, (1, b, c)) / 0.3, 3),
        )
        p = rng.uniform(0.05, 1.0, (1, c))
        p /= p.sum()
        kwargs = dict(
            beta=float(rng.uniform(0.3, 1.0)),
            tau_student=float(rng.uniform(0.08, 1.0)),
            lam=float(rng.uniform(0.0, 1.0)),
        )
        return args + (p,), kwargs

    def test_matches_finite_differences(self, rng):
        step = 1e-5
        worst = 0.0
        for _ in range(25):
            args, kwargs = self._random_instance(rng)
            _, grads = composite_loss_and_grads(*args, **kwargs)
            for name, arr in zip(["weight", "bias", "gamma", "beta_shift"], args[:4]):
                flat = arr.ravel()
                analytic = grads[name].ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    up = composite_loss_and_grads(*args, **kwargs)[0].mean()
                    flat[i] = orig - step
                    down = composite_loss_and_grads(*args, **kwargs)[0].mean()
                    flat[i] = orig
                    fd = (up - down) / (2 * step)
                    err = abs(fd - analytic[i]) / max(abs(fd) + abs(analytic[i]), 1e-6)
                    worst = max(worst, err)
        assert worst <= 1e-4

    def test_multi_head_grads_are_per_head(self, rng):
        # per-head weight grads must equal single-head runs; shared affine
        # grads must be the mean over heads
        c, d, b, h = 3, 4, 2, 4
        w = rng.normal(0, 0.4, (h, c, d))
        bias = rng.normal(0, 0.4, (h, c))
        gamma = rng.normal(1, 0.2, d)
        shift = rng.normal(0, 0.2, d)
        u_x = rng.normal(size=(b, d))
        u_xp = rng.normal(size=(h, b, d))
        qt_x = sinkhorn_knopp(rng.normal(size=(h, b, c)) / 0.3, 3)
        qt_xp = sinkhorn_knopp(rng.normal(size=(h, b, c)) / 0.3, 3)
        p = np.full((h, c), 1 / c)
        kwargs = dict(beta=0.6, tau_student=0.1, lam=0.3)
        losses, grads = composite_loss_and_grads(
            w, bias, gamma, shift, u_x, *indexed(u_xp), qt_x, qt_xp, p, **kwargs
        )
        gamma_sum = np.zeros(d)
        for i in range(h):
            one_losses, one_grads = composite_loss_and_grads(
                w[i : i + 1], bias[i : i + 1], gamma, shift,
                u_x, *indexed(u_xp[i : i + 1]), qt_x[i : i + 1], qt_xp[i : i + 1],
                p[i : i + 1], **kwargs,
            )
            assert one_losses[0] == pytest.approx(losses[i], abs=1e-12)
            assert np.allclose(one_grads["weight"][0], grads["weight"][i], atol=1e-12)
            gamma_sum += one_grads["gamma"]
        assert np.allclose(grads["gamma"], gamma_sum / h, atol=1e-12)


def assert_matches_oracle(got, want):
    # entries that cancel to near zero carry the rounding of their largest
    # terms, so the absolute slack scales with the array's magnitude
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


def random_loss_instance(rng, h, b, c, d):
    args = (
        rng.normal(0, 0.4, (h, c, d)),
        rng.normal(0, 0.4, (h, c)),
        rng.normal(1, 0.2, d),
        rng.normal(0, 0.2, d),
        rng.normal(0, 1, (b, d)),
        rng.normal(0, 1, (h, b, d)),
        sinkhorn_knopp(rng.normal(0, 1, (h, b, c)) / 0.3, 3),
        sinkhorn_knopp(rng.normal(0, 1, (h, b, c)) / 0.3, 3),
        np.maximum(rng.dirichlet(np.ones(c), size=h), 1e-6),
    )
    return args, dict(beta=0.6, tau_student=0.1, lam=0.4)


def ce_floor_instance(rng):
    """A loss instance in which some, not all, pairs sit on the CE floor."""
    h, b, c, d = 3, 8, 4, 5
    args, kwargs = random_loss_instance(rng, h, b, c, d)
    w, bias, gamma, shift, u_x, u_xp, qt_x, qt_xp, marginal = args
    # class 0 is the teacher's pick for the even anchors' neighbors, and
    # its student logit is so low that its probability underflows
    bias[:, 0] = -1e3
    qt_xp = qt_xp.copy()
    qt_xp[:, ::2, 0] = 2.0
    qt_xp /= qt_xp.sum(axis=-1, keepdims=True)
    return (w, bias, gamma, shift, u_x, u_xp, qt_x, qt_xp, marginal), kwargs


class TestScalarLossOracle:
    """The batched kernel's per-head losses against the per-pair formula:
    the mean over pairs of ``pmi_pair_loss + lam * ce_term``."""

    def check(self, args, kwargs):
        w, bias, gamma, shift, u_x, u_xp, qt_x, qt_xp, marginal = args
        beta, tau, lam = kwargs["beta"], kwargs["tau_student"], kwargs["lam"]
        losses, _ = composite_loss_and_grads(*kernel_args(args), **kwargs)
        want = np.zeros(w.shape[0])
        for h in range(w.shape[0]):
            for i in range(u_x.shape[0]):
                qs_x = softmax_logsumexp((w[h] @ (u_x[i] * gamma + shift) + bias[h]) / tau)
                qs_xp = softmax_logsumexp((w[h] @ (u_xp[h, i] * gamma + shift) + bias[h]) / tau)
                want[h] += (pmi_pair_loss(qs_x, qs_xp, qt_x[h, i], qt_xp[h, i], marginal[h], beta)
                            + lam * ce_term(qs_x, qt_xp[h, i]))
            want[h] /= u_x.shape[0]
        assert np.all(np.abs(losses - want) <= 1e-12 * np.abs(want))

    def test_random_instances(self, rng):
        for _ in range(20):
            h, b, c, d = (int(v) for v in rng.integers([1, 1, 2, 2], [5, 9, 7, 9]))
            args, _ = random_loss_instance(rng, h, b, c, d)
            beta, tau, lam = rng.uniform([0.3, 0.08, 0.0], 1.0)
            self.check(args, dict(beta=beta, tau_student=tau, lam=lam))

    def test_pairs_on_ce_floor(self, rng):
        self.check(*ce_floor_instance(rng))


class TestEinsumOracle:
    """The GEMM kernels against the einsum formulation they replaced."""

    def check_loss(self, args, kwargs):
        losses, grads = composite_loss_and_grads(*kernel_args(args), **kwargs)
        want_losses, want_grads = einsum_loss_and_grads(*args, **kwargs)
        assert_matches_oracle(losses, want_losses)
        for name in ("weight", "bias", "gamma", "beta_shift"):
            assert grads[name].shape == want_grads[name].shape
            assert_matches_oracle(grads[name], want_grads[name])

    def check_teacher(self, rng, h, b, m, c, d):
        params = (
            rng.normal(0, 0.4, (h, c, d)),
            rng.normal(0, 0.4, (h, c)),
            rng.normal(1, 0.2, d),
            rng.normal(0, 0.2, d),
        )
        u_x = rng.normal(size=(b, d))
        u_nb = rng.normal(size=(h, b, m, d))
        kwargs = dict(tau=0.1, sk_iters=3)
        got = teacher_targets(*params, u_x, *indexed(u_nb), **kwargs)
        want = einsum_teacher_targets(*params, u_x, u_nb, **kwargs)
        for g, w in zip(got, want):
            assert g.shape == (h, b, c)
            assert_matches_oracle(g, w)

    def test_smallest_instance(self, rng):
        self.check_loss(*random_loss_instance(rng, h=1, b=1, c=2, d=3))
        self.check_teacher(rng, h=1, b=1, m=1, c=2, d=3)

    def test_train_heavy_shape(self, rng):
        self.check_loss(*random_loss_instance(rng, h=50, b=256, c=20, d=384))
        self.check_teacher(rng, h=50, b=256, m=1, c=20, d=384)

    def test_smoothed_teacher_batch(self, rng):
        h, b, m, c, d = 4, 16, 2, 5, 8
        self.check_teacher(rng, h, b, m, c, d)
        # the student loss on the first draw against the smoothed targets
        w, bias, gamma, shift = (
            rng.normal(0, 0.4, (h, c, d)), rng.normal(0, 0.4, (h, c)),
            rng.normal(1, 0.2, d), rng.normal(0, 0.2, d),
        )
        u_x, u_nb = rng.normal(size=(b, d)), rng.normal(size=(h, b, m, d))
        qt_x, qt_xp = teacher_targets(
            w, bias, gamma, shift, u_x, *indexed(u_nb), tau=0.1, sk_iters=3
        )
        marginal = np.full((h, c), 1 / c)
        self.check_loss(
            (w, bias, gamma, shift, u_x, u_nb[:, :, 0], qt_x, qt_xp, marginal),
            dict(beta=0.6, tau_student=0.1, lam=0.4),
        )

    def test_pairs_on_ce_floor(self, rng):
        args, kwargs = ce_floor_instance(rng)
        w, bias, gamma, shift, u_x, u_xp, qt_x, qt_xp, marginal = args
        s_x = u_x * gamma + shift
        qs_x = softmax((np.einsum("hcd,bd->hbc", w, s_x) + bias[:, None, :]) / 0.1)
        c_hat = np.argmax(qt_xp, axis=-1)
        q_at = np.take_along_axis(qs_x, c_hat[..., None], axis=-1)[..., 0]
        floored = q_at <= CE_PROB_FLOOR
        assert floored.any() and not floored.all()
        self.check_loss(args, kwargs)


def batch_contiguous(a):
    return a.strides[-2] == a.itemsize


class TestClusterMajorLayout:
    """Per-sample tensors of a step keep their batch axis contiguous.

    Cluster-last storage gives the same numbers, but every reduction over
    the few clusters then walks short rows; nothing else would catch it.
    """

    def test_logits_and_targets(self, rng):
        h, b, m, c, d = 3, 16, 2, 5, 8
        w, bias, gamma, shift = (
            rng.normal(0, 0.4, (h, c, d)), rng.normal(0, 0.4, (h, c)),
            rng.normal(1, 0.2, d), rng.normal(0, 0.2, d),
        )
        u_x, u_nb = rng.normal(size=(b, d)), rng.normal(size=(h, b, m, d))
        w_fold, b_fold = heads._fold(w, bias, gamma, shift)
        shared = heads._shared_logits(w_fold, b_fold, u_x)
        own = heads._own_logits(w_fold, b_fold, u_nb[:, :, 0])
        assert shared.shape == own.shape == (h, b, c)
        assert batch_contiguous(shared) and batch_contiguous(own)
        for draws in (1, m):
            qt_x, qt_xp = teacher_targets(
                w, bias, gamma, shift, u_x, *indexed(u_nb[:, :, :draws]), tau=0.1, sk_iters=3
            )
            assert batch_contiguous(qt_x) and batch_contiguous(qt_xp)
        assert batch_contiguous(heads.softmax(shared))
        for iters in (0, 3):
            assert batch_contiguous(sinkhorn_knopp(own, iters))


class TestHeadBlocks:
    """A step's neighbor side runs one block of heads at a time and the
    labeling one block of rows at a time; every block size gives the bits
    of the single block ``BLOCK_BYTES`` makes at these sizes."""

    H, B, C, D, N = 7, 37, 5, 33, 101  # at d = 33, splitting the anchor GEMM moves bits

    def set_block(self, monkeypatch, heads_per_block, rows):
        """Make each block of gathered (rows, D) rows hold that many heads."""
        monkeypatch.setattr(heads, "BLOCK_BYTES", heads_per_block * rows * self.D * 8)
        assert len(heads._head_blocks(self.H, rows, self.D)) == -(-self.H // heads_per_block)

    @pytest.mark.parametrize("m", [1, 2])
    def test_step_blocks_are_exact(self, rng, monkeypatch, m):
        h, b, c, d, n = self.H, self.B, self.C, self.D, self.N
        params = (
            rng.normal(0, 0.4, (h, c, d)), rng.normal(0, 0.4, (h, c)),
            rng.normal(1, 0.2, d), rng.normal(0, 0.2, d),
        )
        u = rng.normal(size=(n, d))
        u_x = u[rng.permutation(n)[:b]]
        nbr = rng.integers(0, n, size=(h, b, m))
        marginal = np.maximum(rng.dirichlet(np.ones(c), size=h), 1e-6)

        def step(heads_per_block):
            if heads_per_block:
                self.set_block(monkeypatch, heads_per_block, b * m)
            qt = teacher_targets(*params, u_x, u, nbr, tau=0.1, sk_iters=3)
            if heads_per_block:
                self.set_block(monkeypatch, heads_per_block, b)
            losses, grads = composite_loss_and_grads(
                *params, u_x, u, nbr[:, :, 0], *qt, marginal, beta=0.6, tau_student=0.1, lam=0.4
            )
            return (*qt, losses, *grads.values())

        assert len(heads._head_blocks(h, b * m, d)) == 1
        whole = step(None)
        for heads_per_block in (1, 2, 3):
            got = step(heads_per_block)
            for g, w in zip(got, whole):
                assert np.array_equal(g, w)
            assert batch_contiguous(got[0]) and batch_contiguous(got[1])

    def test_labeling_row_blocks_match_one_gemm(self, trained_run, monkeypatch):
        m, _, _, cfg, bank, _ = trained_run
        s = bank.student
        u = unit_rows(m.data, NormStats(bank.mean, bank.var, s["gamma"], s["beta_shift"]))
        logits = heads._shared_logits(*heads._fold(**s), u) / cfg.tau_student
        want = np.argmax(heads.softmax(logits), axis=-1) + 1
        for rows in (1, 7, 64, m.n):
            monkeypatch.setattr(heads, "BLOCK_BYTES", rows * bank.num_heads * bank.num_clusters * 8)
            got = heads._head_labelings(s, u, cfg.tau_student)
            assert np.array_equal([lab.labels for lab in got], want)

    def test_lowest_non_finite_head_reported_across_row_blocks(self, rng, monkeypatch):
        h, c, d = 3, 4, 5
        student = {"weight": rng.normal(size=(h, c, d)), "bias": np.zeros((h, c)),
                   "gamma": np.ones(d), "beta_shift": np.zeros(d)}
        student["weight"][2, 0, 0] = np.nan  # head 2: every row
        student["weight"][1, 0, 0] = 1e308  # head 1: only the last row overflows
        u = rng.normal(size=(6, d))
        u[:, 0] = 0.0
        u[-1, 0] = 10.0
        monkeypatch.setattr(heads, "BLOCK_BYTES", 8)  # one row per block
        with pytest.raises(ValueError, match="non-finite head logits in head 1"):
            heads._head_labelings(student, u, 0.1)


def test_training_memory_is_bounded():
    # 40 heads of 256 gathered rows at d = 384 are 31 MB a step; blocked,
    # the step holds u (3 MB), O(H*C*B) tensors and one 4 MB block
    features, _ = gen_synthetic(SynthSpec(n=1024, d=384, k=10, separation=3.0, seed=4))
    sets = build_neighbor_sets(features, 0.3, 5)
    cfg = TrainConfig(num_clusters=10, num_heads=40, epochs=1, warmup_epochs=1, lr=1e-3, seed=4)
    tracemalloc.start()
    try:
        train_heads(features, sets, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 << 20, f"train_heads peaked at {peak / 2**20:.1f} MB"


class TestTrainHeads:
    def test_synthetic_best_head_accuracy(self, trained_run):
        _, labels, _, _, _, report = trained_run
        acc, _ = clustering_accuracy(report.per_head_labeling[report.best_head], labels)
        assert acc >= 0.95

    def test_determinism_bitwise(self):
        m, _ = gen_synthetic(SynthSpec(n=80, d=8, k=3, separation=15.0, seed=2))
        sets = build_neighbor_sets(m, 0.3, 4)
        cfg = small_cfg(num_clusters=3, epochs=4)
        bank1, rep1 = train_heads(m, sets, cfg)
        bank2, rep2 = train_heads(m, sets, cfg)
        assert rep1.per_head_loss.tobytes() == rep2.per_head_loss.tobytes()
        assert rep1.best_head == rep2.best_head
        for a, b in zip(rep1.per_head_labeling, rep2.per_head_labeling):
            assert a.labels.tobytes() == b.labels.tobytes()
        assert bank1.student["weight"].tobytes() == bank2.student["weight"].tobytes()

    def test_zero_epochs(self):
        m, _ = gen_synthetic(SynthSpec(n=40, d=6, k=3, separation=10.0, seed=9))
        sets = build_neighbor_sets(m, 0.3, 3)
        cfg = small_cfg(num_clusters=3, epochs=0)
        bank, report = train_heads(m, sets, cfg)
        assert report.best_head == 0
        assert np.all(np.isnan(report.per_head_loss))
        assert len(report.per_head_labeling) == cfg.num_heads
        for lab in report.per_head_labeling:
            assert lab.n == 40

    def test_teacher_frozen_with_momentum_one(self):
        m, _ = gen_synthetic(SynthSpec(n=60, d=6, k=3, separation=10.0, seed=3))
        sets = build_neighbor_sets(m, 0.3, 3)
        cfg = small_cfg(num_clusters=3, epochs=3, teacher_momentum=1.0)
        bank, _ = train_heads(m, sets, cfg)
        # teacher must still equal its init, which copied the student init
        cfg0 = small_cfg(num_clusters=3, epochs=0, teacher_momentum=1.0)
        bank0, _ = train_heads(m, sets, cfg0)
        assert bank.teacher["weight"].tobytes() == bank0.teacher["weight"].tobytes()
        assert bank.teacher["bias"].tobytes() == bank0.teacher["bias"].tobytes()
        assert bank.student["weight"].tobytes() != bank0.student["weight"].tobytes()

    def test_loss_history_recorded(self, trained_run):
        # the decrease requirement itself is checked on the full-size run in
        # the acceptance suite; here only the diagnostic's shape and sanity
        _, _, _, cfg, _, report = trained_run
        history = report.epoch_mean_loss
        assert history.shape == (cfg.epochs, cfg.num_heads)
        assert np.all(np.isfinite(history))
        assert np.allclose(history[-1], report.per_head_loss)

    def test_report_labelings_match_predict(self, trained_run):
        m, _, _, _, bank, report = trained_run
        assert len(report.per_head_labeling) == bank.num_heads
        for h, lab in enumerate(report.per_head_labeling):
            assert np.array_equal(lab.labels, predict_labeling(bank, h, m).labels)

    def test_non_finite_head_logits_rejected_on_both_paths(self, trained_run, monkeypatch):
        m, _, sets, cfg, bank, _ = trained_run
        poisoned_w = bank.student["weight"].copy()
        poisoned_w[1, 0, 0] = np.nan
        poisoned = dataclasses.replace(bank, student={**bank.student, "weight": poisoned_w})
        with pytest.raises(ValueError, match="non-finite head logits"):
            predict_labeling(poisoned, 1, m)
        predict_labeling(poisoned, 0, m)  # other heads are unaffected

        init_bank = heads._init_bank

        def poisoned_init(*args):
            fresh = init_bank(*args)
            fresh.student["weight"][1, 0, 0] = np.inf
            return fresh

        monkeypatch.setattr(heads, "_init_bank", poisoned_init)
        for block_bytes in (heads.BLOCK_BYTES, 8):  # one block of rows, then one row per block
            monkeypatch.setattr(heads, "BLOCK_BYTES", block_bytes)
            with pytest.raises(ValueError, match="non-finite head logits") as info:
                train_heads(m, sets, dataclasses.replace(cfg, epochs=0))
            assert str(info.value) == "non-finite head logits in head 1"

    def test_marginals_are_distributions(self, trained_run):
        _, _, _, _, bank, _ = trained_run
        assert np.all(bank.marginal > 0)
        assert np.allclose(bank.marginal.sum(axis=1), 1.0, atol=1e-9)

    def test_best_head_attains_minimum(self, trained_run):
        _, _, _, _, _, report = trained_run
        assert report.per_head_loss[report.best_head] == report.per_head_loss.min()

    def test_smoothing_runs(self):
        m, labels = gen_synthetic(SynthSpec(n=80, d=8, k=3, separation=15.0, seed=6))
        sets = build_neighbor_sets(m, 0.3, 4)
        cfg = small_cfg(num_clusters=3, epochs=25, smoothing_m=3)
        _, report = train_heads(m, sets, cfg)
        acc, _ = clustering_accuracy(report.per_head_labeling[report.best_head], labels)
        assert acc >= 0.9

    def test_empty_neighbor_set_rejected(self):
        m, _ = gen_synthetic(SynthSpec(n=4, d=3, k=2, separation=10.0, seed=0))
        sets = NeighborSets.from_lists((np.array([1]), np.array([0]), np.array([3]), np.array([])))
        with pytest.raises(ValueError, match="empty neighbor set"):
            train_heads(m, sets, small_cfg(num_clusters=2))

    def test_coverage_mismatch_rejected(self):
        m, _ = gen_synthetic(SynthSpec(n=6, d=3, k=2, separation=10.0, seed=0))
        sets = NeighborSets.from_lists((np.array([1]), np.array([0])))
        with pytest.raises(ValueError, match="cover"):
            train_heads(m, sets, small_cfg(num_clusters=2))

    def test_non_finite_loss_aborts_with_diagnostics(self):
        m, _ = gen_synthetic(SynthSpec(n=40, d=4, k=2, separation=5.0, seed=1))
        sets = build_neighbor_sets(m, 0.3, 3)
        cfg = small_cfg(num_clusters=2, epochs=40, lr=1e14, warmup_epochs=0)
        with pytest.raises(TrainingError) as info:
            train_heads(m, sets, cfg)
        assert info.value.head is not None
        assert info.value.step is not None

    def test_predict_head_out_of_range(self, trained_run):
        m, _, _, _, bank, _ = trained_run
        with pytest.raises(ValueError):
            predict_labeling(bank, bank.num_heads, m)

    def test_predict_single_sample(self, trained_run):
        m, _, _, _, bank, _ = trained_run
        single = EmbeddingMatrix(m.data[:1])
        lab = predict_labeling(bank, 0, single)
        assert lab.n == 1
        assert 1 <= lab.labels[0] <= bank.num_clusters

    def test_labelings_match_unfolded_reference(self, trained_run):
        m, _, _, _, bank, report = trained_run
        s = bank.student
        # the shared affine has trained away from identity, so folding it matters
        assert np.abs(s["gamma"] - 1.0).max() > 1e-2 and np.abs(s["beta_shift"]).max() > 1e-2
        norm = NormStats(bank.mean, bank.var, s["gamma"], s["beta_shift"])
        for h in range(bank.num_heads):
            probs = unfolded_head_probs(s["weight"][h], s["bias"][h], norm, m.data,
                                        bank.config.tau_student)
            want = np.argmax(probs, axis=-1) + 1
            assert np.array_equal(predict_labeling(bank, h, m).labels, want)
            assert np.array_equal(report.per_head_labeling[h].labels, want)


class TestCheckpoint:
    def test_round_trip_bitwise(self, trained_run, tmp_path):
        _, _, _, _, bank, _ = trained_run
        path = tmp_path / "bank.hdb"
        save_head_bank(bank, path)
        back = load_head_bank(path)
        assert back.config == bank.config
        for name in ("mean", "var", "marginal"):
            assert getattr(back, name).tobytes() == getattr(bank, name).tobytes()
        for copy in ("student", "teacher"):
            for key in ("weight", "bias", "gamma", "beta_shift"):
                assert getattr(back, copy)[key].tobytes() == getattr(bank, copy)[key].tobytes()

    def test_loaded_bank_predicts_identically(self, trained_run, tmp_path):
        m, _, _, _, bank, report = trained_run
        path = tmp_path / "bank.hdb"
        save_head_bank(bank, path)
        back = load_head_bank(path)
        lab = predict_labeling(back, report.best_head, m)
        assert np.array_equal(lab.labels, report.per_head_labeling[report.best_head].labels)

    def test_bad_magic(self, tmp_path):
        from clusterens.errors import LoadError

        path = tmp_path / "x.hdb"
        path.write_bytes(b"ZZZZ" + b"\x00" * 32)
        with pytest.raises(LoadError):
            load_head_bank(path)
