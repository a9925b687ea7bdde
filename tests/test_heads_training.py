import dataclasses

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

from oracles import einsum_loss_and_grads, einsum_teacher_targets, softmax


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
            rng.normal(0, 1, (1, b, d)),
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
            w, bias, gamma, shift, u_x, u_xp, qt_x, qt_xp, p, **kwargs
        )
        gamma_sum = np.zeros(d)
        for i in range(h):
            one_losses, one_grads = composite_loss_and_grads(
                w[i : i + 1], bias[i : i + 1], gamma, shift,
                u_x, u_xp[i : i + 1], qt_x[i : i + 1], qt_xp[i : i + 1],
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


class TestEinsumOracle:
    """The GEMM kernels against the einsum formulation they replaced."""

    def check_loss(self, args, kwargs):
        losses, grads = composite_loss_and_grads(*args, **kwargs)
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
        got = teacher_targets(*params, u_x, u_nb, **kwargs)
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
        qt_x, qt_xp = teacher_targets(w, bias, gamma, shift, u_x, u_nb, tau=0.1, sk_iters=3)
        marginal = np.full((h, c), 1 / c)
        self.check_loss(
            (w, bias, gamma, shift, u_x, u_nb[:, :, 0], qt_x, qt_xp, marginal),
            dict(beta=0.6, tau_student=0.1, lam=0.4),
        )

    def test_pairs_on_ce_floor(self, rng):
        h, b, c, d = 3, 8, 4, 5
        args, kwargs = random_loss_instance(rng, h, b, c, d)
        w, bias, gamma, shift, u_x, u_xp, qt_x, qt_xp, marginal = args
        # class 0 is the teacher's pick for the even anchors' neighbors, and
        # its student logit is so low that its probability underflows
        bias[:, 0] = -1e3
        qt_xp = qt_xp.copy()
        qt_xp[:, ::2, 0] = 2.0
        qt_xp /= qt_xp.sum(axis=-1, keepdims=True)
        s_x = u_x * gamma + shift
        qs_x = softmax((np.einsum("hcd,bd->hbc", w, s_x) + bias[:, None, :]) / 0.1)
        c_hat = np.argmax(qt_xp, axis=-1)
        q_at = np.take_along_axis(qs_x, c_hat[..., None], axis=-1)[..., 0]
        floored = q_at <= CE_PROB_FLOOR
        assert floored.any() and not floored.all()
        self.check_loss((w, bias, gamma, shift, u_x, u_xp, qt_x, qt_xp, marginal), kwargs)


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
        assert bank1.student_w.tobytes() == bank2.student_w.tobytes()

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
        assert bank.teacher_w.tobytes() == bank0.teacher_w.tobytes()
        assert bank.teacher_b.tobytes() == bank0.teacher_b.tobytes()
        assert bank.student_w.tobytes() != bank0.student_w.tobytes()

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
        poisoned_w = bank.student_w.copy()
        poisoned_w[1, 0, 0] = np.nan
        poisoned = dataclasses.replace(bank, student_w=poisoned_w)
        with pytest.raises(ValueError, match="non-finite head logits"):
            predict_labeling(poisoned, 1, m)
        predict_labeling(poisoned, 0, m)  # other heads are unaffected

        init_bank = heads._init_bank

        def poisoned_init(*args):
            fresh = init_bank(*args)
            fresh.student_w[1, 0, 0] = np.inf
            return fresh

        monkeypatch.setattr(heads, "_init_bank", poisoned_init)
        with pytest.raises(ValueError, match="non-finite head logits"):
            train_heads(m, sets, dataclasses.replace(cfg, epochs=0))

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
        sets = NeighborSets((np.array([1]), np.array([0]), np.array([3]), np.array([])))
        with pytest.raises(ValueError, match="empty neighbor set"):
            train_heads(m, sets, small_cfg(num_clusters=2))

    def test_coverage_mismatch_rejected(self):
        m, _ = gen_synthetic(SynthSpec(n=6, d=3, k=2, separation=10.0, seed=0))
        sets = NeighborSets((np.array([1]), np.array([0])))
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

    def test_probabilities_valid_everywhere(self, trained_run):
        m, _, _, _, bank, _ = trained_run
        from clusterens.heads import head_forward

        probs = head_forward(bank.student_params(1), m.data, bank.config.tau_student)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def small_checkpoint(path):
    """Save a two-head, d=3 checkpoint to path and return its bytes."""
    m, _ = gen_synthetic(SynthSpec(n=24, d=3, k=2, separation=10.0, seed=4))
    sets = build_neighbor_sets(m, 0.3, 3)
    bank, _ = train_heads(m, sets, small_cfg(num_clusters=2, num_heads=2, epochs=1))
    save_head_bank(bank, path)
    return path.read_bytes()


class TestCheckpoint:
    def test_round_trip_bitwise(self, trained_run, tmp_path):
        _, _, _, _, bank, _ = trained_run
        path = tmp_path / "bank.hdb"
        save_head_bank(bank, path)
        back = load_head_bank(path)
        assert back.config == bank.config
        for name in ("mean", "var", "student_w", "student_b", "student_gamma",
                     "student_beta", "teacher_w", "teacher_b", "teacher_gamma",
                     "teacher_beta", "marginal"):
            assert getattr(back, name).tobytes() == getattr(bank, name).tobytes()

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

    def test_fuzzed_checkpoint_raises_load_error(self, tmp_path):
        path = tmp_path / "bank.hdb"
        good = small_checkpoint(path)
        for cut in range(len(good)):
            path.write_bytes(good[:cut])
            with pytest.raises(LoadError):
                load_head_bank(path)
        # flip each of the first 40 bytes, and the (h, c, d) header after
        # the config text; a flip may leave a loadable file, but nothing
        # other than LoadError may escape
        hcd = 8 + int.from_bytes(good[4:8], "little")
        for pos in [*range(40), *range(hcd, hcd + 12)]:
            for value in (0x00, 0x80, 0xFF):
                path.write_bytes(good[:pos] + bytes([value]) + good[pos + 1 :])
                try:
                    load_head_bank(path)
                except LoadError:
                    pass

    def test_sizes_checked_before_reading(self, tmp_path, monkeypatch):
        # a loader that read the whole file first would pull a wrong or
        # corrupt multi-GB file into memory before rejecting it
        read_sizes = []

        class CountingFile:
            def __init__(self, f):
                self.f = f

            def read(self, count=-1):
                read_sizes.append(count)
                return self.f.read(count)

            def __getattr__(self, name):
                return getattr(self.f, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(
            heads, "open", lambda p, mode: CountingFile(open(p, mode)), raising=False
        )
        big = tmp_path / "features.fpk"
        with open(big, "wb") as f:
            f.write(b"FPK1")
            f.truncate(64 << 20)  # sparse, so cheap on disk
        with pytest.raises(LoadError, match="not a head-bank"):
            load_head_bank(big)
        assert read_sizes == [4]

        path = tmp_path / "bank.hdb"
        good = small_checkpoint(path)
        hcd = 8 + int.from_bytes(good[4:8], "little")
        huge = (1 << 20).to_bytes(4, "little")
        path.write_bytes(good[:hcd] + huge * 3 + good[hcd + 12 :])
        read_sizes.clear()
        with pytest.raises(LoadError, match="payload bytes"):
            load_head_bank(path)
        assert max(read_sizes) < len(good)
