from dataclasses import replace

import numpy as np
import pytest

from clusterens import (
    EmbeddingMatrix,
    Labeling,
    SelfTrainConfig,
    SynthSpec,
    gen_synthetic,
    predict,
    self_train,
)
from clusterens.errors import LoadError
from clusterens.selftrain import ce_loss_and_grads, load_classifier, save_classifier

from oracles import fixed_budget_self_train

SEPARABLE_CFG = SelfTrainConfig(steps=800, lr=0.1, batch_size=64, seed=1)


@pytest.fixture(scope="module")
def separable_run():
    m, labels = gen_synthetic(SynthSpec(n=300, d=16, k=4, separation=20.0, seed=31))
    clf = self_train(m, labels, SEPARABLE_CFG)
    return m, labels, clf


class TestSelfTrain:
    def test_separable_pseudo_labels_fit(self, separable_run):
        m, labels, clf = separable_run
        pred = predict(clf, m)
        assert np.mean(pred.labels == labels.labels) >= 0.99

    def test_zero_iterations_is_initialization(self):
        m, labels = gen_synthetic(SynthSpec(n=50, d=6, k=3, separation=10.0, seed=4))
        clf = self_train(m, labels, SelfTrainConfig(steps=0))
        assert np.array_equal(clf.weight, np.zeros_like(clf.weight))
        pred = predict(clf, m)
        assert pred.n == 50
        # zero logits tie everywhere: lowest class index wins
        assert pred.k == 1

    def test_single_class_pseudo_labels(self):
        m, _ = gen_synthetic(SynthSpec(n=30, d=5, k=2, separation=10.0, seed=7))
        pseudo = Labeling(np.full(30, 9))
        clf = self_train(m, pseudo, SelfTrainConfig(steps=50))
        pred = predict(clf, m)
        assert np.all(pred.labels == 9)

    def test_preserves_original_label_ids(self):
        m, labels = gen_synthetic(SynthSpec(n=90, d=8, k=3, separation=20.0, seed=12))
        shifted = Labeling(labels.labels * 10 + 5)  # ids 15, 25, 35
        clf = self_train(m, shifted, SelfTrainConfig(steps=300, batch_size=32))
        pred = predict(clf, m)
        assert set(np.unique(pred.labels)) <= {15, 25, 35}
        assert np.mean(pred.labels == shifted.labels) >= 0.99

    def test_deterministic(self):
        m, labels = gen_synthetic(SynthSpec(n=60, d=6, k=3, separation=10.0, seed=8))
        cfg = SelfTrainConfig(steps=120, seed=3)
        clf1 = self_train(m, labels, cfg)
        clf2 = self_train(m, labels, cfg)
        assert clf1.weight.tobytes() == clf2.weight.tobytes()
        assert clf1.bias.tobytes() == clf2.bias.tobytes()

    def test_length_mismatch(self):
        m, _ = gen_synthetic(SynthSpec(n=20, d=4, k=2, separation=10.0, seed=1))
        with pytest.raises(ValueError):
            self_train(m, Labeling([1, 2, 1]), SelfTrainConfig(steps=1))


def same_params(clf, ref) -> bool:
    return clf.weight.tobytes() == ref.weight.tobytes() and clf.bias.tobytes() == ref.bias.tobytes()


class TestStopRule:
    """The probe stops at the first epoch boundary where it reproduces every
    pseudo-label; until then it is the fixed-budget loop, step for step."""

    def test_separable_stops_early_as_truncated_run(self, separable_run):
        m, labels, clf = separable_run
        fit = clf.history
        assert fit.stopped_early
        assert 0 < fit.steps < SEPARABLE_CFG.steps
        assert fit.steps % fit.epoch_steps == 0
        assert fit.agreement_by_epoch[-1] == 1.0
        assert all(a < 1.0 for a in fit.agreement_by_epoch[:-1])
        assert len(fit.agreement_by_epoch) == fit.epochs + 1
        ref = fixed_budget_self_train(m, labels, replace(SEPARABLE_CFG, steps=fit.steps))
        assert same_params(clf, ref)

    def test_unfittable_runs_whole_cap_as_fixed_budget(self):
        rng = np.random.default_rng(5)
        m = EmbeddingMatrix(rng.normal(size=(200, 3)))
        pseudo = Labeling(rng.integers(1, 6, size=200))
        cfg = SelfTrainConfig(steps=300, batch_size=32, seed=2)
        clf = self_train(m, pseudo, cfg)
        fit = clf.history
        assert not fit.stopped_early
        assert fit.steps == 300
        assert fit.epoch_steps == 6
        assert len(fit.agreement_by_epoch) == fit.epochs == 50
        assert max(fit.agreement_by_epoch) < 1.0
        assert same_params(clf, fixed_budget_self_train(m, pseudo, cfg))

    @pytest.mark.parametrize(
        "spec, ids, cfg",
        [
            (SynthSpec(n=50, d=6, k=3, separation=10.0, seed=4), None, SelfTrainConfig(steps=0)),
            (SynthSpec(n=30, d=5, k=2, separation=10.0, seed=7), "single",
             SelfTrainConfig(steps=50)),
            (SynthSpec(n=90, d=8, k=3, separation=20.0, seed=12), "shifted",
             SelfTrainConfig(steps=300, batch_size=32)),
            (SynthSpec(n=60, d=6, k=3, separation=10.0, seed=8), None,
             SelfTrainConfig(steps=120, seed=3)),
            (SynthSpec(n=40, d=4, k=4, separation=1.0, seed=9), None,
             SelfTrainConfig(steps=200, batch_size=256, seed=4)),
            (SynthSpec(n=100, d=10, k=5, separation=20.0, seed=2), None,
             SelfTrainConfig(steps=5, batch_size=10, seed=6)),
            # overlapping blobs: 78 epochs at 99.5% agreement before the fit
            (SynthSpec(n=200, d=8, k=3, separation=2.0, seed=1), None,
             SelfTrainConfig(steps=2000, batch_size=32, seed=1)),
        ],
    )
    def test_early_stop_predicts_pseudo_labels(self, spec, ids, cfg):
        m, pseudo = gen_synthetic(spec)
        if ids == "single":
            pseudo = Labeling(np.full(spec.n, 9))
        elif ids == "shifted":
            pseudo = Labeling(pseudo.labels * 10 + 5)
        clf = self_train(m, pseudo, cfg)
        fit = clf.history
        assert fit.steps <= cfg.steps
        assert same_params(clf, fixed_budget_self_train(m, pseudo, replace(cfg, steps=fit.steps)))
        if fit.stopped_early:
            assert np.array_equal(predict(clf, m).labels, pseudo.labels)
            assert fit.agreement_by_epoch[-1] == 1.0
        else:
            assert fit.steps == cfg.steps
        if ids == "single":
            # the zero weights already reproduce a one-class labeling
            assert fit.stopped_early and fit.steps == 0
        if cfg.steps == 0:
            assert not fit.stopped_early and fit.agreement_by_epoch == ()


class TestPredict:
    def test_pure_function(self, separable_run):
        m, _, clf = separable_run
        a = predict(clf, m)
        b = predict(clf, m)
        assert np.array_equal(a.labels, b.labels)

    def test_single_row(self, separable_run):
        m, _, clf = separable_run
        single = EmbeddingMatrix(m.data[:1])
        out = predict(clf, single)
        assert out.n == 1

    def test_duplicated_row_duplicated_prediction(self, separable_run):
        m, _, clf = separable_run
        doubled = EmbeddingMatrix(np.vstack([m.data[3], m.data[3]]))
        out = predict(clf, doubled)
        assert out.labels[0] == out.labels[1]

    def test_dimension_mismatch(self, separable_run):
        _, _, clf = separable_run
        with pytest.raises(ValueError, match="dimension"):
            predict(clf, EmbeddingMatrix(np.ones((2, 3))))


class TestGradients:
    def test_ce_matches_finite_differences(self, rng):
        step = 1e-5
        worst = 0.0
        for _ in range(40):
            b = int(rng.integers(1, 6))
            d = int(rng.integers(2, 8))
            c = int(rng.integers(2, 6))
            weight = rng.normal(0, 0.5, (c, d))
            bias = rng.normal(0, 0.5, c)
            s = rng.normal(size=(b, d))
            targets = rng.integers(0, c, size=b)
            _, grads = ce_loss_and_grads(weight, bias, s, targets)
            for arr, g in ((weight, grads["weight"]), (bias, grads["bias"])):
                flat = arr.ravel()
                gflat = g.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    up = ce_loss_and_grads(weight, bias, s, targets)[0]
                    flat[i] = orig - step
                    down = ce_loss_and_grads(weight, bias, s, targets)[0]
                    flat[i] = orig
                    fd = (up - down) / (2 * step)
                    worst = max(worst, abs(fd - gflat[i]) / max(abs(fd) + abs(gflat[i]), 1e-6))
        assert worst <= 1e-4


class TestCheckpoint:
    def test_round_trip(self, separable_run, tmp_path):
        m, _, clf = separable_run
        path = tmp_path / "clf.bin"
        save_classifier(clf, path)
        back = load_classifier(path)
        assert back.weight.tobytes() == clf.weight.tobytes()
        assert back.bias.tobytes() == clf.bias.tobytes()
        assert np.array_equal(back.class_ids, clf.class_ids)
        assert np.array_equal(predict(back, m).labels, predict(clf, m).labels)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"AAAA" + b"\x00" * 16)
        with pytest.raises(LoadError):
            load_classifier(path)
