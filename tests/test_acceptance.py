"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every criterion is asserted at its stated tolerance.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from clusterens import (
    Labeling,
    SynthSpec,
    TrainConfig,
    ari,
    build_neighbor_sets,
    clustering_accuracy,
    gen_synthetic,
    ground_truth_neighbors,
    hungarian,
    neighbor_accuracy,
    nmi,
    save_features,
    save_labeling,
    supra_consensus,
    train_heads,
)
from clusterens.config import PipelineConfig, resolve
from clusterens.heads import composite_loss_and_grads, sinkhorn_knopp
from clusterens.metrics import contingency, entropy_count, mutual_information
from clusterens.pipeline import run_pipeline
from clusterens.selftrain import ce_loss_and_grads

from oracles import (
    ari_pair_counts,
    brute_force_acc,
    brute_force_assignment,
    brute_force_neighbor_sets,
    nmi_prob_form,
    set_partitions,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


# ---------------------------------------------------------------------------
# shared end-to-end run (exact desk-scale parameters)
# ---------------------------------------------------------------------------

E2E_SPEC = SynthSpec(n=2000, d=64, k=5, separation=20.0, seed=7)
E2E_TRAIN = dict(
    num_clusters=5, num_heads=10, epochs=50, warmup_epochs=5,
    batch_size=256, lr=1e-3, seed=7,
)


@pytest.fixture(scope="module")
def e2e_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    features, labels = gen_synthetic(E2E_SPEC)
    fpath, lpath = tmp / "feats.fpk", tmp / "labels.lbl"
    save_features(features, fpath)
    save_labeling(labels, lpath)
    cfg = PipelineConfig(
        resolve(
            {
                "features": str(fpath),
                "labels": str(lpath),
                "output_dir": str(tmp / "run"),
                "seed": str(E2E_TRAIN["seed"]),
                "neighbors.theta": "0.3",
                "neighbors.k_min": "5",
                "train.num_clusters": str(E2E_TRAIN["num_clusters"]),
                "train.num_heads": str(E2E_TRAIN["num_heads"]),
                "train.epochs": str(E2E_TRAIN["epochs"]),
                "train.warmup_epochs": str(E2E_TRAIN["warmup_epochs"]),
                "train.batch_size": str(E2E_TRAIN["batch_size"]),
                "train.lr": str(E2E_TRAIN["lr"]),
            },
            [],
        )
    )
    t0 = time.perf_counter()
    manifest = run_pipeline(cfg)
    elapsed = time.perf_counter() - t0
    return features, labels, manifest, elapsed


def test_metric_oracles():
    with criterion("metric-oracles"):
        t0 = time.perf_counter()
        for n in range(1, 7):
            partitions = [np.array(p) for p in set_partitions(n)]
            labelings = [Labeling(p) for p in partitions]
            for i, a in enumerate(labelings):
                for j, b in enumerate(labelings):
                    if n >= 2:
                        acc, _ = clustering_accuracy(a, b)
                        assert acc == brute_force_acc(partitions[i], partitions[j])
                        assert abs(ari(a, b) - ari_pair_counts(partitions[i], partitions[j])) <= 1e-9
                    assert abs(nmi(a, b) - nmi_prob_form(partitions[i], partitions[j])) <= 1e-9
        rng = np.random.default_rng(2024)
        for _ in range(200):
            r = int(rng.integers(1, 8))
            c = int(rng.integers(1, 8))
            cost = rng.integers(-20, 80, size=(r, c)).astype(float)
            _, total = hungarian(cost)
            assert total == brute_force_assignment(cost)
        assert time.perf_counter() - t0 < 30.0


def test_paper_anchored_hand_values():
    with criterion("hand-values"):
        a = Labeling([1, 1, 2, 2])
        b = Labeling([1, 2, 1, 2])
        # crossed partitions carry zero mutual information
        assert nmi(a, b) == 0.0
        # count-form entropy (no 1/n): nonpositive by construction
        assert entropy_count(a) == pytest.approx(4 * np.log(0.5), abs=1e-12)
        # count-form MI of a labeling with itself
        assert mutual_information(contingency(a, a)) == pytest.approx(4 * np.log(2), abs=1e-12)
        # adjusted Rand of the crossed pair, derived from the adjustment
        # formula and cross-checked against the pair-counting oracle
        expected_ari = ari_pair_counts([1, 1, 2, 2], [1, 2, 1, 2])
        assert expected_ari == pytest.approx(-0.5, abs=1e-12)
        assert ari(a, b) == pytest.approx(expected_ari, abs=1e-9)


def test_gradient_correctness():
    with criterion("gradient-correctness"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(77)
        step = 1e-5
        worst = 0.0

        for _ in range(100):
            d = int(rng.integers(2, 9))
            c = int(rng.integers(2, 6))
            b = int(rng.integers(1, 5))
            student, teacher = ({
                "weight": rng.normal(0, 0.4, (1, c, d)),
                "bias": rng.normal(0, 0.4, (1, c)),
                "gamma": rng.normal(1, 0.2, d),
                "beta_shift": rng.normal(0, 0.2, d),
            } for _ in range(2))
            u_x = rng.normal(0, 1, (b, d))
            u = rng.normal(0, 1, (b, d))  # the unit rows
            nbr = np.arange(b)[None, :, None]  # head 0's neighbor of anchor i is u[i]
            p = rng.uniform(0.05, 1.0, (1, c))
            p /= p.sum()
            args = (student, teacher, u_x, u, nbr, p)
            kwargs = dict(
                beta=float(rng.uniform(0.3, 1.0)),
                tau_student=float(rng.uniform(0.08, 1.0)),
                tau_teacher=0.3,
                sk_iters=3,
                lam=float(rng.uniform(0.0, 1.0)),
            )
            _, grads, *_ = composite_loss_and_grads(*args, **kwargs)
            for name, arr in student.items():
                flat = arr.ravel()
                analytic = grads[name].ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    up = composite_loss_and_grads(*args, **kwargs)[0][0]
                    flat[i] = orig - step
                    down = composite_loss_and_grads(*args, **kwargs)[0][0]
                    flat[i] = orig
                    fd = (up - down) / (2 * step)
                    worst = max(worst, abs(fd - analytic[i]) / max(abs(fd) + abs(analytic[i]), 1e-6))

        for _ in range(100):
            b = int(rng.integers(1, 5))
            d = int(rng.integers(2, 9))
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
        assert time.perf_counter() - t0 < 60.0


def test_sinkhorn_knopp_centering():
    with criterion("sinkhorn-knopp"):
        rng = np.random.default_rng(5)
        for _ in range(20):
            logits = rng.normal(size=(64, 10)) * rng.uniform(0.5, 4.0)
            target = 64 / 10
            out = sinkhorn_knopp(logits, 50)
            assert np.abs(out.sum(axis=0) - target).max() <= 1e-6
            assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
            dev0 = np.abs(sinkhorn_knopp(logits, 0).sum(axis=0) - target).max()
            dev3 = np.abs(sinkhorn_knopp(logits, 3).sum(axis=0) - target).max()
            assert dev3 < dev0


def test_adaptive_nearest_neighbors():
    with criterion("adaptive-nn"):
        rng = np.random.default_rng(31)
        # threshold monotonicity across 50 random feature sets
        from clusterens import EmbeddingMatrix

        for _ in range(50):
            n = int(rng.integers(10, 40))
            d = int(rng.integers(3, 10))
            m = EmbeddingMatrix(rng.normal(size=(n, d)))
            previous = None
            for theta in (1.0, 0.6, 0.2, -0.2, -1.0):
                sizes = build_neighbor_sets(m, theta, 3).sizes()
                if previous is not None:
                    assert np.all(sizes >= previous)
                previous = sizes
        # theta = 1.0 on generic-position data: exactly the top-k_min sets
        m = EmbeddingMatrix(rng.normal(size=(60, 8)))
        sets = build_neighbor_sets(m, 1.0, 5)
        assert all(s.size == 5 for s in sets.sets)
        # brute-force equivalence for n <= 200; sets are listed by index
        for n, theta, k_min in ((50, 0.4, 3), (120, 0.1, 5), (200, 0.3, 10)):
            data = rng.normal(size=(n, 6))
            got = build_neighbor_sets(EmbeddingMatrix(data), theta, k_min)
            want = brute_force_neighbor_sets(data, theta, k_min)
            for g, w in zip(got.sets, want):
                assert g.tolist() == sorted(w)


def test_end_to_end_synthetic_pipeline(e2e_run):
    with criterion("end-to-end-pipeline"):
        _, _, manifest, elapsed = e2e_run
        stage1 = manifest.stage("train").metrics["acc"]
        stage2 = manifest.stage("ensemble").metrics["acc"]
        stage3 = manifest.stage("selftrain").metrics["acc"]
        assert stage1 >= 0.95
        assert stage2 >= stage1 - 0.01
        assert stage3 >= 0.95
        assert "selftrain" in [s.name for s in manifest.stages]
        assert elapsed < 120.0


def test_training_loss_decreases_on_acceptance_run(e2e_run):
    with criterion("loss-decrease"):
        features, _, _, _ = e2e_run
        sets = build_neighbor_sets(features, 0.3, 5)
        _, report = train_heads(features, sets, TrainConfig(**E2E_TRAIN))
        history = report.epoch_mean_loss.mean(axis=1)
        chunk = max(1, len(history) // 10)
        assert history[-chunk:].mean() <= history[:chunk].mean()


def test_consensus_beats_mean_individual():
    with criterion("consensus-property"):
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(9000 + seed)
            n, k, members = 300, 5, 50
            planted = Labeling(rng.integers(1, k + 1, size=n))
            inputs = []
            for _ in range(members):
                labels = planted.labels.copy()
                flip = rng.random(n) < 0.1
                offsets = rng.integers(1, k, size=n)
                labels[flip] = ((labels[flip] - 1 + offsets[flip]) % k) + 1
                inputs.append(Labeling(labels))
            consensus = supra_consensus(inputs, k=k)
            acc, _ = clustering_accuracy(consensus, planted)
            mean_individual = np.mean(
                [clustering_accuracy(lam, planted)[0] for lam in inputs]
            )
            wins += acc >= mean_individual
        assert wins >= 19


def test_ground_truth_neighbor_upper_bound():
    with criterion("upper-bound-direction"):
        features, labels = gen_synthetic(SynthSpec(n=600, d=16, k=4, separation=1.8, seed=42))
        degraded = build_neighbor_sets(features, theta=0.2, k_min=5)
        stats = neighbor_accuracy(degraded, labels)
        # the degraded threshold must actually admit ~30% wrong-label pairs
        assert 0.55 <= stats.pair_accuracy <= 0.75
        cfg = TrainConfig(
            num_clusters=4, num_heads=6, epochs=20, warmup_epochs=2,
            batch_size=128, lr=1e-3, seed=0,
        )
        _, rep_adaptive = train_heads(features, degraded, cfg)
        _, rep_gt = train_heads(features, ground_truth_neighbors(labels), cfg)
        acc_adaptive, _ = clustering_accuracy(
            rep_adaptive.per_head_labeling[rep_adaptive.best_head], labels
        )
        acc_gt, _ = clustering_accuracy(
            rep_gt.per_head_labeling[rep_gt.best_head], labels
        )
        assert acc_gt >= acc_adaptive


@pytest.mark.skip(reason="manual check: needs a user-supplied CIFAR10 feature file "
                         "from a strong frozen backbone (stage-1 best-head ACC >= 0.97)")
def test_real_feature_check_manual():
    pass
