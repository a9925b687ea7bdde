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
)
from clusterens.neighbors import NeighborSets

from clusterens import featstore
from clusterens.featstore import unit_rows

from oracles import (
    ce_term,
    einsum_loss_and_grads,
    einsum_teacher_targets,
    pmi_pair_loss,
    softmax,
    softmax_logsumexp,
    two_sided_loss_and_grads,
    unfolded_head_probs,
)

PARAM_NAMES = ("weight", "bias", "gamma", "beta_shift")


def indexed(rows):
    """Gathered rows (H, B, [m,] d) in the kernels' form: unit rows u and
    row ids nbr with ``u[nbr] == rows``."""
    ids = np.arange(rows[..., 0].size).reshape(rows.shape[:-1])
    return rows.reshape(-1, rows.shape[-1]), ids


def param_copy(rng, h, c, d):
    """One random parameter copy (student or teacher) of h heads."""
    return {"weight": rng.normal(0, 0.4, (h, c, d)), "bias": rng.normal(0, 0.4, (h, c)),
            "gamma": rng.normal(1, 0.2, d), "beta_shift": rng.normal(0, 0.2, d)}


def loss_instance(rng, h, b, c, d, m=1):
    """Kernel arguments with gathered neighbor rows: (student, teacher, u_x,
    u_nb (H, B, m, d), marginal), and the keyword arguments."""
    args = (
        param_copy(rng, h, c, d),
        param_copy(rng, h, c, d),
        rng.normal(0, 1, (b, d)),
        rng.normal(0, 1, (h, b, m, d)),
        np.maximum(rng.dirichlet(np.ones(c), size=h), 1e-6),
    )
    return args, dict(beta=0.6, tau_student=0.1, tau_teacher=0.1, sk_iters=3, lam=0.4)


def run_kernel(args, kwargs):
    """``composite_loss_and_grads`` on an instance of ``loss_instance``."""
    student, teacher, u_x, u_nb, marginal = args
    return composite_loss_and_grads(student, teacher, u_x, *indexed(u_nb), marginal, **kwargs)


def with_targets(monkeypatch, call):
    """``(call(), blocks)`` for a kernel call: ``blocks`` holds, in block
    order, the (qt_x, qt_xp) pair that ``heads._block_targets`` gave each
    head block, the teacher targets that block trained against."""
    blocks, block_targets = [], heads._block_targets

    def spy(*args):
        blocks.append(block_targets(*args))
        return blocks[-1]

    with monkeypatch.context() as patch:
        patch.setattr(heads, "_block_targets", spy)
        return call(), blocks


def joined(blocks):
    """The (H, B, C) anchor and neighbor targets of all heads from the
    blocks of ``with_targets``."""
    return tuple(np.concatenate(side) for side in zip(*blocks))


def run_with_targets(monkeypatch, args, kwargs):
    """``run_kernel`` and the teacher targets it trained against:
    (losses, grads, batch_marginal, qt_x, qt_xp)."""
    out, blocks = with_targets(monkeypatch, lambda: run_kernel(args, kwargs))
    return (*out, *joined(blocks))


def cast(args, dtype):
    """An instance with its parameters and rows in ``dtype`` (the marginal
    stays float64, as training keeps it)."""
    student, teacher, u_x, u_nb, marginal = args
    student, teacher = ({k: v.astype(dtype) for k, v in p.items()} for p in (student, teacher))
    return student, teacher, u_x.astype(dtype), u_nb.astype(dtype), marginal


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
        args, _ = loss_instance(rng, 1, b, c, d)
        p = rng.uniform(0.05, 1.0, (1, c))
        p /= p.sum()
        kwargs = dict(
            beta=float(rng.uniform(0.3, 1.0)),
            tau_student=float(rng.uniform(0.08, 1.0)),
            tau_teacher=0.3,
            sk_iters=3,
            lam=float(rng.uniform(0.0, 1.0)),
        )
        return args[:4] + (p,), kwargs

    def test_matches_finite_differences(self, rng):
        step = 1e-5
        worst = 0.0
        for _ in range(25):
            args, kwargs = self._random_instance(rng)
            _, grads, *_ = run_kernel(args, kwargs)
            for name in PARAM_NAMES:
                flat = args[0][name].ravel()
                analytic = grads[name].ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    up = run_kernel(args, kwargs)[0].mean()
                    flat[i] = orig - step
                    down = run_kernel(args, kwargs)[0].mean()
                    flat[i] = orig
                    fd = (up - down) / (2 * step)
                    err = abs(fd - analytic[i]) / max(abs(fd) + abs(analytic[i]), 1e-6)
                    worst = max(worst, err)
        assert worst <= 1e-4

    def test_multi_head_grads_are_per_head(self, rng, monkeypatch):
        # per-head weight grads must equal single-head runs; shared affine
        # grads must be the mean over heads
        h = 4
        (student, teacher, u_x, u_nb, p), kwargs = loss_instance(rng, h, b=2, c=3, d=4)
        p[:] = 1 / 3
        kwargs.update(lam=0.3)
        losses, grads, marginal, qt_x, qt_xp = run_with_targets(
            monkeypatch, (student, teacher, u_x, u_nb, p), kwargs)

        def head(copy, i):
            return {**copy, "weight": copy["weight"][i : i + 1], "bias": copy["bias"][i : i + 1]}

        gamma_sum = np.zeros_like(grads["gamma"])
        for i in range(h):
            one = (head(student, i), head(teacher, i), u_x, u_nb[i : i + 1], p[i : i + 1])
            one_losses, one_grads, one_marginal, one_qt_x, one_qt_xp = run_with_targets(
                monkeypatch, one, kwargs)
            assert one_losses[0] == pytest.approx(losses[i], abs=1e-12)
            assert np.allclose(one_grads["weight"][0], grads["weight"][i], atol=1e-12)
            assert np.allclose(one_qt_x[0], qt_x[i], atol=1e-14)
            assert np.allclose(one_qt_xp[0], qt_xp[i], atol=1e-14)
            assert np.allclose(one_marginal[0], marginal[i], atol=1e-14)
            gamma_sum += one_grads["gamma"]
        assert np.allclose(grads["gamma"], gamma_sum / h, atol=1e-12)


def assert_matches_oracle(got, want, rtol=1e-10, atol=0.0):
    # entries that cancel to near zero carry the rounding of their largest
    # terms, so the absolute slack scales with the array's magnitude
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=max(atol, rtol * np.abs(want).max()))


# A pair loss holds -log q for a probability q that may lie within 1e-8 of
# 1, as with a confident teacher; either form knows that term only to a few
# float64 ulps of 1, so losses are compared to at least this absolute slack.
LOSS_ATOL = 1e-15


def ce_floor_instance(rng):
    """A loss instance in which some, not all, pairs sit on the CE floor."""
    args, kwargs = loss_instance(rng, h=3, b=8, c=4, d=5)
    student, teacher, _, u_nb, _ = args
    # class 0 is the teacher's pick for the even anchors' neighbors (feature
    # 0 is +3 there and -3 elsewhere, and only class 0 reads it), and its
    # student logit is so low that its probability underflows
    student["bias"][:, 0] = -1e3
    teacher["weight"][:, :, 0] = 0.0
    teacher["weight"][:, 0, 0] = 10.0
    u_nb[..., 0] = -3.0
    u_nb[:, ::2, :, 0] = 3.0
    return args, kwargs


class TestScalarLossOracle:
    """The batched kernel's per-head losses against the per-pair formula:
    the mean over pairs of ``pmi_pair_loss + lam * ce_term``, on the teacher
    targets the kernel trained against."""

    def check(self, monkeypatch, args, kwargs):
        student, _, u_x, u_nb, marginal = args
        w, bias, gamma, shift = (student[k] for k in PARAM_NAMES)
        beta, tau, lam = kwargs["beta"], kwargs["tau_student"], kwargs["lam"]
        losses, _, _, qt_x, qt_xp = run_with_targets(monkeypatch, args, kwargs)
        want = np.zeros(w.shape[0])
        for h in range(w.shape[0]):
            for i in range(u_x.shape[0]):
                qs_x = softmax_logsumexp((w[h] @ (u_x[i] * gamma + shift) + bias[h]) / tau)
                qs_xp = softmax_logsumexp((w[h] @ (u_nb[h, i, 0] * gamma + shift) + bias[h]) / tau)
                want[h] += (pmi_pair_loss(qs_x, qs_xp, qt_x[h, i], qt_xp[h, i], marginal[h], beta)
                            + lam * ce_term(qs_x, qt_xp[h, i]))
            want[h] /= u_x.shape[0]
        assert np.all(np.abs(losses - want) <= 1e-12 * np.abs(want))

    def test_random_instances(self, rng, monkeypatch):
        for _ in range(20):
            h, b, c, d = (int(v) for v in rng.integers([1, 1, 2, 2], [5, 9, 7, 9]))
            args, kwargs = loss_instance(rng, h, b, c, d)
            beta, tau, lam = rng.uniform([0.3, 0.08, 0.0], 1.0)
            kwargs.update(beta=beta, tau_student=tau, lam=lam)
            self.check(monkeypatch, args, kwargs)

    def test_pairs_on_ce_floor(self, rng, monkeypatch):
        self.check(monkeypatch, *ce_floor_instance(rng))


class TestEinsumOracle:
    """The GEMM kernel against the einsum formulation it replaced: the
    teacher forward and its batch marginal, then the loss and gradients on
    the targets the kernel trained against."""

    def check(self, monkeypatch, args, kwargs, rtol=1e-10):
        student, teacher, u_x, u_nb, marginal = args
        losses, grads, batch_marginal, *targets = run_with_targets(monkeypatch, args, kwargs)
        want_targets = einsum_teacher_targets(
            *(teacher[k] for k in PARAM_NAMES), u_x, u_nb,
            tau=kwargs["tau_teacher"], sk_iters=kwargs["sk_iters"],
        )
        for g, w in zip(targets, want_targets):
            assert g.shape == w.shape == u_nb.shape[:2] + student["bias"].shape[1:]
            assert_matches_oracle(g, w, rtol)
        assert batch_marginal.shape == student["bias"].shape
        assert_matches_oracle(batch_marginal, want_targets[0].mean(axis=1), rtol)
        want_losses, want_grads = einsum_loss_and_grads(
            *(student[k] for k in PARAM_NAMES), u_x, u_nb[:, :, 0], *targets, marginal,
            beta=kwargs["beta"], tau_student=kwargs["tau_student"], lam=kwargs["lam"],
        )
        assert_matches_oracle(losses, want_losses, rtol, LOSS_ATOL)
        for name in PARAM_NAMES:
            assert grads[name].shape == want_grads[name].shape
            assert_matches_oracle(grads[name], want_grads[name], rtol)

    def test_smallest_instance(self, rng, monkeypatch):
        self.check(monkeypatch, *loss_instance(rng, h=1, b=1, c=2, d=3))

    def test_train_heavy_shape(self, rng, monkeypatch):
        self.check(monkeypatch, *loss_instance(rng, h=50, b=256, c=20, d=384))

    def test_smoothed_teacher_batch(self, rng, monkeypatch):
        # the student loss on the first draw against the smoothed targets
        self.check(monkeypatch, *loss_instance(rng, h=4, b=16, c=5, d=8, m=2))

    def test_pairs_on_ce_floor(self, rng, monkeypatch):
        args, kwargs = ce_floor_instance(rng)
        student, _, u_x, _, _ = args
        w, bias, gamma, shift = (student[k] for k in PARAM_NAMES)
        s_x = u_x * gamma + shift
        qs_x = softmax((np.einsum("hcd,bd->hbc", w, s_x) + bias[:, None, :]) / 0.1)
        c_hat = np.argmax(run_with_targets(monkeypatch, args, kwargs)[4], axis=-1)
        q_at = np.take_along_axis(qs_x, c_hat[..., None], axis=-1)[..., 0]
        floored = q_at <= CE_PROB_FLOOR
        assert floored.any() and not floored.all()
        self.check(monkeypatch, args, kwargs)


class TestFloat32:
    """Training runs the kernel in float32; the float64 run of the same
    inputs is its reference."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("heads_per_block", [None, 2])
    def test_matches_float64(self, rng, monkeypatch, m, heads_per_block):
        args, kwargs = loss_instance(rng, h=5, b=64, c=6, d=20, m=m)
        args = cast(args, np.float32)  # float32-exact inputs, for both runs
        if heads_per_block:
            monkeypatch.setattr(featstore, "BLOCK_BYTES", heads_per_block * 64 * m * 20 * 4)
            assert len(featstore.blocks(5, 64 * m * 20 * 4)) == 3
        single = run_with_targets(monkeypatch, args, kwargs)
        double = run_with_targets(monkeypatch, cast(args, np.float64), kwargs)
        assert single[0].dtype == np.float32
        assert all(g.dtype == np.float32 for g in single[1].values())
        assert single[2].dtype == np.float64
        for got, want in [(single[0], double[0]), *((single[1][k], double[1][k]) for k in PARAM_NAMES),
                          *zip(single[2:], double[2:])]:
            assert_matches_oracle(got, want, rtol=1e-4)

    @pytest.mark.parametrize("gap", [12.0, 20.0])
    def test_confident_disagreement_stays_finite(self, gap, monkeypatch):
        # half the rows read +1 and half -1 on the one feature: the teacher
        # picks class 0 on +1 rows and class 1 on -1 rows by a logit gap of
        # `gap`, the student the other class by the same gap, so every
        # product q_s * q_t underflows float32
        b, h = 8, 2
        u_x = np.where(np.arange(b) % 2 == 0, 1.0, -1.0)[:, None]
        u_nb = np.broadcast_to(u_x[:, None], (h, b, 1, 1)).copy()

        def copy(sign):
            return {"weight": np.broadcast_to(sign * np.array([[gap / 2], [-gap / 2]]), (h, 2, 1)).copy(),
                    "bias": np.zeros((h, 2)), "gamma": np.ones(1), "beta_shift": np.zeros(1)}

        args = (copy(-1.0), copy(1.0), u_x, u_nb, np.full((h, 2), 0.5))
        kwargs = dict(beta=0.6, tau_student=0.1, tau_teacher=0.1, sk_iters=3, lam=0.4)
        single = run_kernel(cast(args, np.float32), kwargs)
        double = run_kernel(args, kwargs)
        for got, want in [(single[0], double[0]), *((single[1][k], double[1][k]) for k in PARAM_NAMES)]:
            assert np.isfinite(got).all()
            assert_matches_oracle(got, want, rtol=1e-5)
        TestEinsumOracle().check(monkeypatch, args, kwargs)  # float64 in either domain

    def test_trained_parameters_are_float32_exact(self, trained_run, tmp_path):
        # the bank holds the float32 values that trained, and HDB1 their exact
        # float64 upcast: the bytes of a bank upcast by hand, and back the same values
        _, _, _, _, bank, _ = trained_run
        upcast = dataclasses.replace(bank, **{
            name: {k: v.astype(np.float64) for k, v in getattr(bank, name).items()}
            for name in ("student", "teacher")})
        save_head_bank(bank, tmp_path / "bank.hdb")
        save_head_bank(upcast, tmp_path / "upcast.hdb")
        assert (tmp_path / "bank.hdb").read_bytes() == (tmp_path / "upcast.hdb").read_bytes()
        back = load_head_bank(tmp_path / "bank.hdb")
        for name in ("student", "teacher"):
            for key, value in getattr(bank, name).items():
                assert value.dtype == np.float32
                assert getattr(back, name)[key].tobytes() == value.tobytes()

    @pytest.mark.parametrize("loaded", [False, True])
    def test_each_copy_is_one_flat_buffer(self, trained_run, tmp_path, loaded):
        # the layout that AdamW, the EMA and the labelings read, for a trained
        # and a loaded bank alike
        _, _, _, _, bank, _ = trained_run
        if loaded:
            save_head_bank(bank, tmp_path / "bank.hdb")
            bank = load_head_bank(tmp_path / "bank.hdb")
        for copy in (bank.student, bank.teacher):
            flat = copy["weight"].base
            assert flat.dtype == np.float32 and flat.ndim == 1 and flat.flags.owndata
            _, want = heads._param_views(bank.num_heads, bank.num_clusters, bank.dim, flat)
            assert list(copy) == list(want)
            for key, value in copy.items():
                assert value.dtype == np.float32 and value.base is flat
                assert value.__array_interface__ == want[key].__array_interface__
        assert bank.student["weight"].base is not bank.teacher["weight"].base


def batch_contiguous(a):
    return a.strides[-2] == a.itemsize


class TestClusterMajorLayout:
    """Per-sample tensors of a step keep their batch axis contiguous.

    Cluster-last storage gives the same numbers, but every reduction over
    the few clusters then walks short rows; nothing else would catch it.
    """

    def test_logits_and_targets(self, rng, monkeypatch):
        h, b, m, c, d = 3, 16, 2, 5, 8
        args, kwargs = loss_instance(rng, h, b, c, d, m)
        student, _, u_x, u_nb, _ = args
        w_fold, b_fold = heads._fold(**student)
        shared = heads._shared_logits(w_fold, b_fold, u_x)
        own = heads._own_logits(w_fold, b_fold, u_nb[:, :, 0])
        assert shared.shape == own.shape == (h, b, c)
        assert batch_contiguous(shared) and batch_contiguous(own)
        for draws in (1, m):
            instance = (*args[:3], u_nb[:, :, :draws], args[4])
            _, blocks = with_targets(monkeypatch, lambda: run_kernel(instance, kwargs))
            assert all(batch_contiguous(t) for pair in blocks for t in pair)
        assert batch_contiguous(heads.softmax(shared))
        for iters in (0, 3):
            assert batch_contiguous(sinkhorn_knopp(own, iters))


class TestHeadBlocks:
    """A step's neighbor side runs one block of heads at a time and the
    labeling one block of rows at a time; every block size gives the bits
    of the single block ``featstore.BLOCK_BYTES`` makes at these sizes."""

    H, B, C, D, N = 7, 37, 5, 33, 101  # at d = 33, splitting the anchor GEMM moves bits

    def set_block(self, monkeypatch, heads_per_block, rows, itemsize):
        """Make each block of gathered (rows, D) rows hold that many heads."""
        monkeypatch.setattr(featstore, "BLOCK_BYTES", heads_per_block * rows * self.D * itemsize)
        blocks = featstore.blocks(self.H, rows * self.D * itemsize)
        assert len(blocks) == -(-self.H // heads_per_block)

    @pytest.mark.parametrize("m", [1, 2])
    def test_step_blocks_are_exact(self, rng, monkeypatch, m):
        h, b, c, d, n = self.H, self.B, self.C, self.D, self.N
        student, teacher = param_copy(rng, h, c, d), param_copy(rng, h, c, d)
        u = rng.normal(size=(n, d))
        u_x = u[rng.permutation(n)[:b]]
        nbr = rng.integers(0, n, size=(h, b, m))
        marginal = np.maximum(rng.dirichlet(np.ones(c), size=h), 1e-6)
        kwargs = dict(beta=0.6, tau_student=0.1, tau_teacher=0.1, sk_iters=3, lam=0.4)
        budget = featstore.BLOCK_BYTES

        for dtype in (np.float32, np.float64):  # the training dtype and the tests'
            args = (*cast((student, teacher, u_x, u, marginal), dtype)[:4], nbr, marginal)
            itemsize = np.dtype(dtype).itemsize
            monkeypatch.setattr(featstore, "BLOCK_BYTES", budget)
            assert len(featstore.blocks(h, b * m * d * itemsize)) == 1
            (losses, grads, marginal), blocks = with_targets(
                monkeypatch, lambda: composite_loss_and_grads(*args, **kwargs))
            whole = (losses, *grads.values(), marginal, *joined(blocks))
            for heads_per_block in (1, 2, 3):
                self.set_block(monkeypatch, heads_per_block, b * m, itemsize)
                (losses, grads, marginal), blocks = with_targets(
                    monkeypatch, lambda: composite_loss_and_grads(*args, **kwargs))
                got = (losses, *grads.values(), marginal, *joined(blocks))
                for g, w in zip(got, whole):
                    assert g.dtype == w.dtype and np.array_equal(g, w)
                assert all(batch_contiguous(t) for pair in blocks for t in pair)

    def test_labeling_row_blocks_match_one_gemm(self, trained_run, monkeypatch):
        m, _, _, cfg, bank, _ = trained_run
        s = bank.student
        norm = bank.norm
        # the labels as they were taken before the argmax of the logits: of softmax(logits / tau)
        logits = heads._shared_logits(*heads._fold(**s), unit_rows(m.data, norm)) / cfg.tau_student
        want = np.argmax(heads.softmax(logits), axis=-1) + 1
        for rows in (1, 7, 64, m.n):
            # float32 logits of every head, float64 then float32 unit rows
            row_bytes = 4 * (bank.num_heads * bank.num_clusters + 3 * bank.dim)
            monkeypatch.setattr(featstore, "BLOCK_BYTES", rows * row_bytes)
            got = heads._head_labelings(s, m.n, lambda r: unit_rows(m.data[r], norm, np.float32))
            assert np.array_equal([lab.labels for lab in got], want)

    def test_lowest_non_finite_head_reported_across_row_blocks(self, rng, monkeypatch):
        h, c, d = 3, 4, 5
        student = {"weight": rng.normal(size=(h, c, d)), "bias": np.zeros((h, c)),
                   "gamma": np.ones(d), "beta_shift": np.zeros(d)}
        student["weight"][2, 0, 0] = np.nan  # head 2: every row
        student["weight"][1, 0, 0] = 1e38  # head 1: only the last row overflows float32
        u = rng.normal(size=(6, d)).astype(np.float32)
        u[:, 0] = 0.0
        u[-1, 0] = 10.0
        monkeypatch.setattr(featstore, "BLOCK_BYTES", 8)  # one row per block
        with pytest.raises(ValueError, match="non-finite head logits in head 1"):
            heads._head_labelings(student, 6, u.__getitem__)


class TestTwoSidedOracle:
    """The kernel runs both sides of each pair as one (h, 2B, C) view of a
    head block's logit buffer; the formulation it replaced, one side at a
    time with a float64 copy of the teacher's logits, gives the same bits:
    the losses and gradients, the (H, B, C) teacher targets that the blocks
    trained against, and as the mean of its anchors' targets over the batch
    the batch marginal that the kernel returns."""

    H, B, C, D, N = 12, 29, 9, 17, 83  # C >= 8: a cluster-last sum would move bits

    def instance(self, rng, dtype, m):
        """Kernel arguments in ``dtype`` with m draws per anchor."""
        h, b, c, d, n = self.H, self.B, self.C, self.D, self.N
        student, teacher = param_copy(rng, h, c, d), param_copy(rng, h, c, d)
        u = rng.normal(size=(n, d))
        nbr = rng.integers(0, n, size=(h, b, m))
        marginal = np.maximum(rng.dirichlet(np.ones(c), size=h), 1e-6)
        return (*cast((student, teacher, u[rng.permutation(n)[:b]], u, marginal), dtype)[:4],
                nbr, marginal)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("sk_iters", [0, 3])
    def test_same_bits_over_uneven_head_blocks(self, rng, monkeypatch, dtype, m, sk_iters):
        h, b, d = self.H, self.B, self.D
        args = self.instance(rng, dtype, m)
        kwargs = dict(beta=0.6, tau_student=0.1, tau_teacher=0.1, sk_iters=sk_iters, lam=0.4)
        rows = b * m * d * np.dtype(dtype).itemsize
        monkeypatch.setattr(featstore, "BLOCK_BYTES", 5 * rows)
        assert [hb.stop - hb.start for hb in featstore.blocks(h, rows)] == [5, 5, 2]
        got, blocks = with_targets(monkeypatch, lambda: composite_loss_and_grads(*args, **kwargs))
        want = two_sided_loss_and_grads(*args, **kwargs)
        for g, w in [(got[0], want[0]), *((got[1][k], want[1][k]) for k in PARAM_NAMES),
                     (got[2], want[2].mean(axis=1)), *zip(joined(blocks), want[2:])]:
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert np.isfinite(got[0]).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_with_one_head_per_unfold_block(self, rng, monkeypatch, dtype):
        # d_gamma carries its sum from one block of heads to the next
        h, c, d = self.H, self.C, self.D
        args = self.instance(rng, dtype, 1)
        kwargs = dict(beta=0.6, tau_student=0.1, tau_teacher=0.1, sk_iters=3, lam=0.4)
        monkeypatch.setattr(featstore, "BLOCK_BYTES", c * d * np.dtype(dtype).itemsize)
        assert len(featstore.blocks(h, c * d * np.dtype(dtype).itemsize)) == h
        got = composite_loss_and_grads(*args, **kwargs)
        want = two_sided_loss_and_grads(*args, **kwargs)
        for g, w in [(got[0], want[0]), *((got[1][k], want[1][k]) for k in PARAM_NAMES)]:
            assert g.dtype == w.dtype and np.array_equal(g, w)


def test_training_memory_is_bounded():
    # 40 heads of 256 gathered float32 rows at d = 384 are 16 MB a step; blocked,
    # the step holds u (1.5 MB), O(H*C*B) tensors and one 2 MiB block
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


def test_step_holds_no_float64_target_copies():
    # 12 heads of 256 gathered float32 rows at d = 384 run in head blocks of 5, 5
    # and 2.  Building and returning two (H, B, C) float64 target arrays and
    # unfolding through two (H, C, d) temporaries, one call peaked at 3.98 MiB;
    # without them it holds 3.15 MiB: one 2 MiB gather block, the stacked weights
    # and gradients, the anchors' logits and their gradients, and one block's
    # per-sample tensors
    h, c, d, b, n = 12, 8, 384, 256, 1024
    rng = np.random.default_rng(7)
    student, teacher = ({k: v.astype(np.float32) for k, v in param_copy(rng, h, c, d).items()}
                        for _ in range(2))
    u = rng.normal(size=(n, d)).astype(np.float32)
    nbr = rng.integers(0, n, size=(h, b, 1))
    marginal = np.full((h, c), 1.0 / c)
    kwargs = dict(beta=0.6, tau_student=0.1, tau_teacher=0.1, sk_iters=3, lam=0.4)
    assert len(featstore.blocks(h, b * d * 4)) == 3
    tracemalloc.start()
    try:
        out = composite_loss_and_grads(student, teacher, u[:b], u, nbr, marginal, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20, f"one step peaked at {peak / 2**20:.2f} MiB"
    # the losses, the gradients' flat buffer and the (H, C) float64 batch
    # marginal, and not one (H, B, C) float64 array more
    returned = out[0].nbytes + out[1]["weight"].base.nbytes + h * c * 8
    assert held - returned < h * b * c * 8, f"{(held - returned) / 2**10:.0f} KiB held"
    assert len(out) == 3 and out[2].shape == (h, c)


@pytest.mark.parametrize("m", [1, 2])
def test_block_targets(rng, m):
    # the anchors' targets are a view of the Sinkhorn-Knopp output, and so are a
    # single draw's: a copy would cost one (h, B, C) float64 array per block
    logits = rng.normal(size=(3, 8 + 8 * m, 5)) * 3
    qt = sinkhorn_knopp(logits, 3)
    qt_x, qt_xp = heads._block_targets(logits, 8, 3)
    assert np.array_equal(qt_x, qt[:, :8])
    assert np.array_equal(qt_xp, qt[:, 8:].reshape(3, m, 8, 5).mean(axis=1))
    assert qt_x.base is not None and (qt_xp.base is qt_x.base) == (m == 1)


def test_predict_labeling_holds_one_block_of_standardized_rows():
    # 40000 x 64 standardized float64 rows are 20 MB, ten budgets; one head
    # of 10 clusters labels them 3542 rows (2 MiB with their logits) a block
    features, _ = gen_synthetic(SynthSpec(n=40000, d=64, k=10, seed=5))
    cfg = TrainConfig(num_clusters=10, num_heads=1)
    bank = heads._init_bank(cfg, features.norm, np.random.default_rng(5))
    tracemalloc.start()
    try:
        labeling = predict_labeling(bank, 0, features)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labeling.n == 40000
    # one block plus the n labels, a few int64 copies of them
    assert peak < featstore.BLOCK_BYTES + 40000 * 8 * 4, f"peaked at {peak / 2**20:.1f} MB"


def recorded_draws(monkeypatch, m, sets, cfg):
    """``(anchors, nbr)`` of every step of ``train_heads(m, sets, cfg)``."""
    calls, draw = [], heads._draw_neighbors

    def spy(head_rngs, anchors, *args):
        nbr = draw(head_rngs, anchors, *args)
        calls.append((anchors.copy(), nbr.copy()))
        return nbr

    with monkeypatch.context() as patch:
        patch.setattr(heads, "_draw_neighbors", spy)
        train_heads(m, sets, cfg)
    return calls


class TestNeighborDraws:
    """Each head draws its neighbors from its own stream, one call a step."""

    @pytest.fixture(scope="class")
    def blobs(self):
        m, _ = gen_synthetic(SynthSpec(n=80, d=8, k=3, separation=15.0, seed=2))
        return m, build_neighbor_sets(m, 0.3, 4)

    def test_draws_are_members_of_their_anchors_sets(self, blobs, monkeypatch):
        m, sets = blobs
        calls = recorded_draws(monkeypatch, m, sets, small_cfg(num_clusters=3, smoothing_m=3))
        assert len(calls) == 8 * 3  # 8 epochs of 3 batches
        members = [set(s.tolist()) for s in sets.sets]
        for anchors, nbr in calls:
            assert nbr.shape == (3, anchors.size, 3)
            for h, b, j in np.ndindex(nbr.shape):
                assert nbr[h, b, j] in members[anchors[b]]

    def test_member_frequencies_within_binomial_bound(self):
        # anchors 0 and 1 hold sets of 5 and 7 members; 400 steps of 256 anchors, 2 draws
        sets = NeighborSets.from_lists([np.arange(1, 6), np.arange(2, 9)] + [np.array([0])] * 7)
        rngs = [np.random.default_rng(11), np.random.default_rng(12)]
        anchors = np.arange(256) % 2
        counts = np.zeros((2, 2, 9))
        for _ in range(400):
            nbr = heads._draw_neighbors(rngs, anchors, sets, sets.sizes(), 2)
            for a in (0, 1):
                counts[:, a] += [np.bincount(row.ravel(), minlength=9)
                                 for row in nbr[:, anchors == a]]
        for a, members in ((0, range(1, 6)), (1, range(2, 9))):
            draws, p = 400 * 128 * 2, 1 / len(members)
            others = np.setdiff1d(np.arange(9), members)
            assert (counts[:, a, others] == 0).all()
            bound = 5 * np.sqrt(draws * p * (1 - p))
            assert np.abs(counts[:, a, members] - draws * p).max() < bound

    def test_head_draws_do_not_depend_on_head_count(self, blobs, monkeypatch):
        m, sets = blobs
        runs = [recorded_draws(monkeypatch, m, sets, small_cfg(num_clusters=3, num_heads=h,
                                                               smoothing_m=2, epochs=2))
                for h in (1, 3)]
        assert len(runs[0]) == len(runs[1]) == 6
        for (anchors_1, nbr_1), (anchors_3, nbr_3) in zip(*runs):
            assert np.array_equal(anchors_1, anchors_3)
            assert np.array_equal(nbr_1[0], nbr_3[0])


class TestTrainHeads:
    def test_synthetic_best_head_accuracy(self, trained_run):
        _, labels, _, _, _, report = trained_run
        acc, _ = clustering_accuracy(report.per_head_labeling[report.best_head], labels)
        assert acc >= 0.95

    def test_determinism_bitwise(self):
        m, _ = gen_synthetic(SynthSpec(n=80, d=8, k=3, separation=15.0, seed=2))
        sets = build_neighbor_sets(m, 0.3, 4)
        for smoothing in (1, 2):
            cfg = small_cfg(num_clusters=3, epochs=4, smoothing_m=smoothing)
            bank1, rep1 = train_heads(m, sets, cfg)
            bank2, rep2 = train_heads(m, sets, cfg)
            assert rep1.per_head_loss.tobytes() == rep2.per_head_loss.tobytes()
            assert rep1.best_head == rep2.best_head
            for a, b in zip(rep1.per_head_labeling, rep2.per_head_labeling):
                assert a.labels.tobytes() == b.labels.tobytes()
            for copy in ("student", "teacher"):
                for key in PARAM_NAMES:
                    a, b = getattr(bank1, copy)[key], getattr(bank2, copy)[key]
                    assert a.tobytes() == b.tobytes()
            assert bank1.marginal.tobytes() == bank2.marginal.tobytes()

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
        for block_bytes in (featstore.BLOCK_BYTES, 8):  # one block of rows, then one row per block
            monkeypatch.setattr(featstore, "BLOCK_BYTES", block_bytes)
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
        norm = bank.norm
        for h in range(bank.num_heads):
            probs = unfolded_head_probs(s["weight"][h], s["bias"][h], s["gamma"],
                                        s["beta_shift"], norm, m.data, bank.config.tau_student)
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
        for name in ("mean", "var"):
            assert getattr(back.norm, name).tobytes() == getattr(bank.norm, name).tobytes()
        assert back.marginal.tobytes() == bank.marginal.tobytes()
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
