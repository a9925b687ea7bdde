import numpy as np
import pytest

from clusterens import TrainConfig
from clusterens.heads import _AdamW, _param_views, ema_update, lambda_schedule, sinkhorn_knopp

from oracles import (
    PerKeyAdamW,
    ce_term,
    out_of_place_sinkhorn_knopp,
    per_key_ema_update,
    pmi_pair_loss,
)


class TestSinkhorn:
    def test_uniform_fixed_point(self):
        logits = np.zeros((8, 4))
        out = sinkhorn_knopp(logits, iters=3)
        assert np.allclose(out, 0.25)

    def test_column_sums_converge(self, rng):
        logits = rng.normal(size=(64, 10)) * 3
        out = sinkhorn_knopp(logits, iters=50)
        assert np.allclose(out.sum(axis=0), 6.4, atol=1e-6)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_iters_is_softmax(self, rng):
        logits = rng.normal(size=(5, 3))
        out = sinkhorn_knopp(logits, iters=0)
        expected = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        assert np.allclose(out, expected, atol=1e-12)

    def test_three_iters_reduce_column_deviation(self, rng):
        for _ in range(10):
            logits = rng.normal(size=(32, 6)) * 2
            dev0 = np.abs(sinkhorn_knopp(logits, 0).sum(axis=0) - 32 / 6).max()
            dev3 = np.abs(sinkhorn_knopp(logits, 3).sum(axis=0) - 32 / 6).max()
            assert dev3 < dev0

    def test_overflow_guarded(self):
        logits = np.array([[1e4, 0.0], [0.0, 1e4]])
        out = sinkhorn_knopp(logits, 3)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("shape", [(50, 512, 20), (10, 512, 5), (3, 7, 4)])
    @pytest.mark.parametrize("iters", [0, 1, 3])
    def test_in_place_matches_out_of_place_bits(self, rng, shape, iters):
        # the scaling-vector form against the normalizing form it replaced:
        # the same numbers up to rounding
        logits = rng.normal(size=shape) * 4
        out = sinkhorn_knopp(logits, iters)
        ref = out_of_place_sinkhorn_knopp(logits, iters)
        assert out.shape == ref.shape
        assert np.all(np.abs(out - ref) <= 1e-13 * np.abs(ref))

    def test_stacked_batches(self, rng):
        logits = rng.normal(size=(3, 16, 5))
        stacked = sinkhorn_knopp(logits, 4)
        for h in range(3):
            single = sinkhorn_knopp(logits[h], 4)
            assert np.allclose(stacked[h], single, atol=1e-14)

    def test_negative_iters_rejected(self):
        with pytest.raises(ValueError):
            sinkhorn_knopp(np.zeros((2, 2)), -1)


class TestPmiPairLoss:
    def test_matched_one_hots(self):
        c = 10
        one_hot = np.zeros(c)
        one_hot[3] = 1.0
        p = np.full(c, 1.0 / c)
        loss = pmi_pair_loss(one_hot, one_hot, one_hot, one_hot, p, beta=1.0)
        assert loss == pytest.approx(-np.log(10), abs=1e-12)

    def test_disjoint_teachers_annihilate(self, rng):
        c = 4
        qt_x = np.array([1.0, 0, 0, 0])
        qt_xp = np.array([0, 1.0, 0, 0])
        qs = rng.dirichlet(np.ones(c))
        p = np.full(c, 0.25)
        assert pmi_pair_loss(qs, qs, qt_x, qt_xp, p, beta=0.6) == 0.0

    def test_all_uniform_zero(self):
        c = 5
        u = np.full(c, 0.2)
        assert pmi_pair_loss(u, u, u, u, u, beta=1.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_marginal_rejected(self):
        c = 3
        u = np.full(c, 1 / 3)
        p = np.array([0.5, 0.5, 0.0])
        with pytest.raises(ValueError, match="marginal"):
            pmi_pair_loss(u, u, u, u, p, beta=0.6)

    def test_beta_range(self):
        u = np.full(3, 1 / 3)
        with pytest.raises(ValueError):
            pmi_pair_loss(u, u, u, u, u, beta=0.0)


class TestCeTerm:
    def test_uniform_student(self):
        qt = np.array([0.0, 0.0, 1.0, 0.0])
        qs = np.full(4, 0.25)
        assert ce_term(qs, qt) == pytest.approx(np.log(4), abs=1e-12)

    def test_perfect_prediction(self):
        qt = np.array([0.0, 1.0, 0.0])
        qs = np.array([0.0, 1.0, 0.0])
        assert ce_term(qs, qt) == 0.0

    def test_tie_goes_to_lowest_class(self):
        qt = np.full(4, 0.25)
        qs = np.array([0.9, 0.05, 0.03, 0.02])
        assert ce_term(qs, qt) == pytest.approx(-np.log(0.9))

    def test_zero_probability_clamped(self):
        qt = np.array([1.0, 0.0])
        qs = np.array([0.0, 1.0])
        assert ce_term(qs, qt) == pytest.approx(-np.log(1e-12))


class TestLambdaSchedule:
    def test_starts_at_zero(self):
        assert lambda_schedule(0, 100, 0.5) == 0.0

    def test_ends_at_lambda_max(self):
        assert lambda_schedule(100, 100, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_midpoint(self):
        assert lambda_schedule(50, 100, 0.8) == pytest.approx(0.4, abs=1e-12)

    def test_monotone_nondecreasing(self):
        values = [lambda_schedule(s, 200, 0.5) for s in range(201)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            lambda_schedule(5, 4, 0.5)
        with pytest.raises(ValueError):
            lambda_schedule(0, 0, 0.5)


class TestEmaUpdate:
    def test_momentum_one_keeps_teacher(self, rng):
        t = rng.normal(size=(3, 4))
        s = rng.normal(size=(3, 4))
        assert np.array_equal(ema_update(t, s, 1.0), t)

    def test_momentum_zero_copies_student(self, rng):
        t = rng.normal(size=5)
        s = rng.normal(size=5)
        assert np.array_equal(ema_update(t, s, 0.0), s)

    def test_paper_momentum_value(self):
        out = ema_update(np.zeros(1), np.ones(1), 0.996)
        assert out[0] == pytest.approx(0.004, abs=1e-15)

    def test_convex_combination(self, rng):
        # after k updates the teacher stays inside the hull of the initial
        # teacher and the student trajectory
        for momentum in (0.0, 0.5, 1.0):
            t = np.array([0.0])
            students = [np.array([float(v)]) for v in rng.uniform(-1, 2, size=10)]
            low, high = 0.0, 0.0
            for s in students:
                t = ema_update(t, s, momentum)
                low = min(low, s[0])
                high = max(high, s[0])
                assert low - 1e-12 <= t[0] <= high + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ema_update(np.zeros(2), np.zeros(3), 0.5)

    def test_momentum_range(self):
        with pytest.raises(ValueError):
            ema_update(np.zeros(1), np.zeros(1), 1.5)


def flat_copy(rng):
    """A float32 parameter copy of 3 heads, 4 clusters and d = 6, filled
    with normal draws: the flat buffer and its named views."""
    flat, views = _param_views(3, 4, 6, dtype=np.float32)
    flat[...] = rng.normal(size=flat.size)
    return flat, views


def warmup_lr(step, warmup=4, lr=1e-2):
    return lr * min(1.0, (step + 1) / warmup)


class TestFlatParameters:
    def test_views_tile_the_buffer_in_order(self):
        flat, views = _param_views(3, 4, 6, dtype=np.float32)
        flat[...] = np.arange(flat.size)
        assert [(k, v.shape) for k, v in views.items()] == [
            ("weight", (3, 4, 6)), ("bias", (3, 4)), ("gamma", (6,)), ("beta_shift", (6,))]
        assert np.array_equal(np.concatenate([v.ravel() for v in views.values()]), flat)
        assert all(v.base is flat for v in views.values())

    @pytest.mark.parametrize("momentum", [0.0, 0.996, 1.0])
    @pytest.mark.parametrize("weight_decay", [0.05, 0.0])
    def test_adamw_and_ema_match_per_key_bytes(self, rng, weight_decay, momentum):
        # one pass per operation over the flat buffer against one per array:
        # the same elementwise arithmetic, so the same bytes at every step
        student, s = flat_copy(rng)
        teacher, t = flat_copy(rng)
        ref_s, ref_t = ({k: v.copy() for k, v in c.items()} for c in (s, t))
        opt = _AdamW(student, weight_decay, decayed=s["weight"].size)
        ref_opt = PerKeyAdamW(ref_s, weight_decay)
        for step in range(6):
            grads, g = flat_copy(rng)
            opt.step(student, grads, warmup_lr(step))
            ref_opt.step(ref_s, {k: v.copy() for k, v in g.items()}, warmup_lr(step))
            ema_update(teacher, student, momentum)
            per_key_ema_update(ref_t, ref_s, momentum)
            moments = (_param_views(3, 4, 6, buf)[1] for buf in (opt.m, opt.v))
            for views, ref in zip((s, t, *moments), (ref_s, ref_t, ref_opt.m, ref_opt.v)):
                for key, value in ref.items():
                    assert views[key].tobytes() == value.tobytes(), (step, key)

    def test_weight_decay_touches_only_weight(self):
        trained = []
        for weight_decay in (0.0, 0.05):
            rng = np.random.default_rng(3)
            params, views = flat_copy(rng)
            opt = _AdamW(params, weight_decay, decayed=views["weight"].size)
            for step in range(5):
                opt.step(params, flat_copy(rng)[0], warmup_lr(step))
            trained.append(views)
        plain, decayed = trained
        assert (plain["weight"] != decayed["weight"]).all()
        for key in ("bias", "gamma", "beta_shift"):
            assert plain[key].tobytes() == decayed[key].tobytes()


class TestTrainConfigValidation:
    def test_defaults_valid(self):
        cfg = TrainConfig(num_clusters=10)
        assert cfg.num_heads == 50
        assert cfg.tau_teacher == 0.1
        assert cfg.beta == 0.6
        assert cfg.lambda_max == 0.5
        assert cfg.teacher_momentum == 0.996
        assert cfg.sk_iters == 3
        assert cfg.lr == 1.25e-6
        assert cfg.weight_decay == 1e-4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_clusters": 1},
            {"num_clusters": 5, "num_heads": 0},
            {"num_clusters": 5, "tau_student": 0.0},
            {"num_clusters": 5, "beta": 1.5},
            {"num_clusters": 5, "lambda_max": -0.1},
            {"num_clusters": 5, "teacher_momentum": 1.01},
            {"num_clusters": 5, "sk_iters": -1},
            {"num_clusters": 5, "smoothing_m": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)
