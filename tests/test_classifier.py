"""Classifier checks: softmax numerics, SGD training behavior, ranking
metrics, and the checkpoint format."""

import importlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from npy_faults import FAULTS, fault_bytes, npy_bytes, refusal

from wrot.classifier import (
    SoftmaxModel,
    TrainConfig,
    TrainingDivergedError,
    evaluate,
    load_model,
    save_model,
    sgd_train,
)
from wrot.data_io import Dataset, make_grouping
from wrot.frank_wolfe import FWConfig
from wrot.measures import TransportPlan
from wrot.metric_solvers import DSConfig, KLConfig, PNormConfig
from wrot.rot_loss import LabelSpace, rot_loss, rot_loss_gradient
from wrot.sinkhorn import SinkhornConfig

classifier_mod = importlib.import_module("wrot.classifier")

# the loss's default solve, one step without an early stop, under the identity
IDENTITY_LOSS = FWConfig(None, max_iter=1, gap_tol=None)


def unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def three_label_space(seed=0):
    rng = np.random.default_rng(seed)
    return LabelSpace(embeddings=unit_rows(rng, 3, 4))


def blob_dataset(seed=1, per_class=25):
    rng = np.random.default_rng(seed)
    centers = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 2.5]])
    feats, labs = [], []
    for c in range(3):
        feats.append(centers[c] + rng.normal(size=(per_class, 2)) * 0.5)
        block = np.zeros((per_class, 3), dtype=int)
        block[:, c] = 1
        labs.append(block)
    return Dataset(
        features=np.vstack(feats),
        labels=np.vstack(labs),
        label_names=("a", "b", "c"),
    )


class TestSoftmaxModel:
    def test_zero_weights_give_uniform(self):
        model = SoftmaxModel(weights=np.zeros((4, 5)))
        np.testing.assert_allclose(
            model.probabilities(np.ones(4)), np.full(5, 0.2), atol=1e-15
        )

    def test_two_term_softmax(self):
        model = SoftmaxModel(weights=np.array([[np.log(2.0), 0.0]]))
        np.testing.assert_allclose(
            model.probabilities(np.array([1.0])), [2 / 3, 1 / 3], atol=1e-15
        )

    def test_logit_shift_invariance(self):
        base = np.array([[0.3, -1.2, 2.0]])
        a = SoftmaxModel(weights=base)
        b = SoftmaxModel(weights=base + 7.5)
        x = np.array([1.0])
        np.testing.assert_allclose(
            a.probabilities(x), b.probabilities(x), atol=1e-15
        )

    def test_extreme_logits_stay_normalized(self):
        model = SoftmaxModel(weights=np.array([[1000.0, -1000.0, 0.0]]))
        p = model.probabilities(np.array([1.0]))
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert p[0] == pytest.approx(1.0, abs=1e-12)

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(2)
        model = SoftmaxModel(weights=rng.normal(size=(4, 3)))
        batch = rng.normal(size=(6, 4))
        stacked = np.stack([model.probabilities(row) for row in batch])
        np.testing.assert_allclose(model.probabilities(batch), stacked, atol=1e-15)

    @pytest.mark.parametrize("size", [1, 3, 48, 1000])
    def test_softmax_of_one_row_equals_the_batch_row(self, size):
        """The one softmax kernel gives a 1-d row, as training computes it,
        the same bits as that row inside a 2-d batch."""
        logits = 30.0 * np.random.default_rng(size).normal(size=size)
        row = classifier_mod._softmax_rows(logits)
        assert row.shape == (size,)
        assert np.array_equal(row, classifier_mod._softmax_rows(logits[None, :])[0])

    def test_feature_dim_mismatch(self):
        model = SoftmaxModel(weights=np.zeros((4, 3)))
        with pytest.raises(ValueError, match="expects 4"):
            model.probabilities(np.ones(5))

    def test_features_beyond_two_dimensions_rejected(self):
        model = SoftmaxModel(weights=np.zeros((4, 3)))
        message = r"^features must be 1- or 2-dimensional, got shape \(2, 4, 4\)$"
        with pytest.raises(ValueError, match=message):
            model.probabilities(np.ones((2, 4, 4)))


class TestTrainConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=-1e-9)

    @pytest.mark.parametrize("metric", [PNormConfig(), KLConfig(), DSConfig(), None])
    def test_a_distance_config_cannot_become_the_loss(self, metric):
        """A loss that once read RotLossConfig(metric=...) now names an
        FWConfig; written FWConfig(metric), it carries the distance's
        converging solve of up to 200 steps, which training refuses. The
        one-step loss of that family is the default with the metric
        swapped in, or gap_tol=None with max_iter=1 stated."""
        with pytest.raises(ValueError, match="^loss must be run to max_iter"):
            TrainConfig(loss=FWConfig(metric))
        with pytest.raises(ValueError, match="^loss must be run to max_iter"):
            TrainConfig(loss=FWConfig(metric, max_iter=1))
        stated = TrainConfig(loss=FWConfig(metric, max_iter=1, gap_tol=None)).loss
        assert stated == replace(TrainConfig().loss, metric=metric)


class TestSgdTrain:
    @pytest.mark.parametrize("grouped", [False, True], ids=["span", "grouped"])
    def test_training_builds_no_transport_plan(self, monkeypatch, grouped):
        """Training reads only each sample's loss value and gradient, so it
        builds no TransportPlan, on a span space (3 labels in 4 dimensions)
        or a grouped one."""
        built = []
        post_init = TransportPlan.__post_init__

        def counting_post_init(plan):
            built.append(plan)
            post_init(plan)

        labels = three_label_space()
        if grouped:
            labels = LabelSpace(labels.embeddings, grouping=make_grouping(4, 2, seed=0))
        monkeypatch.setattr(TransportPlan, "__post_init__", counting_post_init)
        result = sgd_train(blob_dataset(per_class=5), labels, TrainConfig(epochs=2))
        assert all(np.isfinite(result.epoch_losses))
        assert built == []

    def test_lambda_gamma_moves_only_the_reported_loss(self):
        """The gradient sgd_train steps on is the oracle's potential at
        lambda_beta and takes no lambda_gamma: the entropy weight moves the
        value rot_loss reports and not one bit of the plan the gradient
        stands on. The target is a two-label row as sgd_train normalizes it,
        which reaches the oracle."""
        labels = three_label_space()
        h, y = np.array([0.5, 0.3, 0.2]), np.array([0.5, 0.0, 0.5])
        _, stepped = rot_loss_gradient(h, y, labels, TrainConfig().loss)
        low, high = (
            rot_loss(h, y, labels, TrainConfig().loss, lambda_gamma=lam) for lam in (0.02, 0.5)
        )
        for loss in (low, high):
            assert loss.plan.matrix.tobytes() == stepped.plan.matrix.tobytes()
        assert low.value == stepped.value != high.value

    def test_single_sample_loss_descends(self):
        # fixed sample, squared-distance loss: the per-epoch trace must be
        # monotone once past the first few steps
        labels = three_label_space()
        rng = np.random.default_rng(3)
        ds = Dataset(
            features=rng.normal(size=(1, 4)),
            labels=np.array([[0, 1, 0]]),
            label_names=("a", "b", "c"),
        )
        cfg = TrainConfig(
            loss=IDENTITY_LOSS,
            learning_rate=0.01,
            epochs=12,
        )
        trace = sgd_train(ds, labels, cfg).epoch_losses
        assert len(trace) == 12
        assert all(np.isfinite(trace))
        assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(2, 11))

    def test_small_step_descends(self):
        labels = three_label_space()
        rng = np.random.default_rng(4)
        ds = Dataset(
            features=rng.normal(size=(1, 4)),
            labels=np.array([[1, 0, 0]]),
            label_names=("a", "b", "c"),
        )
        cfg = TrainConfig(
            loss=IDENTITY_LOSS,
            learning_rate=1e-4,
            epochs=2,
        )
        trace = sgd_train(ds, labels, cfg).epoch_losses
        assert trace[1] < trace[0]

    def test_update_matches_weight_finite_differences(self):
        """One zero-decay SGD step from W = 0 exposes the trainer's composed
        gradient as -W_after / lr; it must match central differences of the
        loss through the softmax."""
        labels = three_label_space()
        rng = np.random.default_rng(5)
        x = rng.normal(size=4)
        ds = Dataset(
            features=x[None, :],
            labels=np.array([[0, 1, 0]]),
            label_names=("a", "b", "c"),
        )
        loss_cfg = FWConfig(
            PNormConfig(k=1),
            SinkhornConfig(lambda_beta=0.05, iterations=600),
            max_iter=80,
            gap_tol=None,
        )
        lr = 1e-3
        out = sgd_train(
            ds,
            labels,
            TrainConfig(
                loss=loss_cfg,
                learning_rate=lr,
                epochs=1,
                weight_decay=0.0,
            ),
        )
        trainer_grad = -np.asarray(out.model.weights) / lr
        # the trainer's target is the label row itself: one-hot, one plan
        target = np.array([0.0, 1.0, 0.0])

        def loss_at(weights):
            z = x @ weights
            h = np.exp(z - z.max())
            h /= h.sum()
            return rot_loss(h, target, labels, loss_cfg, lambda_gamma=0.05).value

        eps = 1e-6
        for a in range(4):
            for b in range(3):
                plus = np.zeros((4, 3))
                plus[a, b] = eps
                fd = (loss_at(plus) - loss_at(-plus)) / (2 * eps)
                assert trainer_grad[a, b] == pytest.approx(fd, rel=1e-3)

    def test_divergence_aborts_with_diagnostics(self, monkeypatch):
        labels = three_label_space()
        ds = blob_dataset(per_class=2)

        def explode(h, target, label_space, loss_config):
            return np.zeros(3), SimpleNamespace(value=2e6)

        monkeypatch.setattr(classifier_mod, "rot_loss_gradient", explode)
        with pytest.raises(TrainingDivergedError) as info:
            sgd_train(ds, labels, TrainConfig(epochs=1))
        assert info.value.epoch == 0
        assert info.value.loss == 2e6

    def test_nan_loss_aborts(self, monkeypatch):
        labels = three_label_space()
        ds = blob_dataset(per_class=2)
        monkeypatch.setattr(
            classifier_mod,
            "rot_loss_gradient",
            lambda *args: (np.zeros(3), SimpleNamespace(value=float("nan"))),
        )
        with pytest.raises(TrainingDivergedError):
            sgd_train(ds, labels, TrainConfig(epochs=1))

    def test_underflowed_prediction_aborts(self):
        """A learning rate of 100 drives a softmax probability to an exact
        0, where the loss gradient is undefined: a divergence, with no loss."""
        with pytest.raises(TrainingDivergedError, match="underflowed to 0") as info:
            sgd_train(
                blob_dataset(per_class=25),
                three_label_space(),
                TrainConfig(learning_rate=100, epochs=5),
            )
        error = info.value
        assert f"epoch {error.epoch}, sample {error.sample}:" in str(error)
        assert "lower learning_rate" in str(error)
        assert np.isnan(error.loss)

    def test_label_count_mismatch(self):
        labels = three_label_space()
        ds = Dataset(
            features=np.ones((2, 4)),
            labels=np.array([[1, 0], [0, 1]]),
            label_names=("a", "b"),
        )
        with pytest.raises(ValueError, match="label"):
            sgd_train(ds, labels, TrainConfig(epochs=1))

    def test_empty_dataset_rejected(self):
        ds = Dataset(features=np.zeros((0, 4)), labels=np.zeros((0, 3)), label_names="abc")
        with pytest.raises(ValueError, match="^dataset has 0 instances"):
            sgd_train(ds, three_label_space(), TrainConfig(epochs=1))

    def test_seeded_shuffle_reproducible(self):
        labels = three_label_space()
        ds = blob_dataset(per_class=4)
        cfg = TrainConfig(epochs=2, seed=11)
        first = sgd_train(ds, labels, cfg)
        second = sgd_train(ds, labels, cfg)
        np.testing.assert_array_equal(first.model.weights, second.model.weights)
        assert first.epoch_losses == second.epoch_losses
        shifted = sgd_train(ds, labels, TrainConfig(epochs=2, seed=12))
        assert not np.array_equal(first.model.weights, shifted.model.weights)

    def test_trace_shapes(self):
        labels = three_label_space()
        ds = blob_dataset(per_class=3)
        res = sgd_train(ds, labels, TrainConfig(epochs=3))
        assert len(res.epoch_losses) == 3
        assert len(res.epoch_seconds) == 3
        assert all(np.isfinite(res.epoch_losses))

    def test_blobs_learn_with_default_recipe(self):
        labels = three_label_space()
        ds = blob_dataset()
        res = sgd_train(ds, labels, TrainConfig(epochs=10))
        metrics = evaluate(res.model, ds)
        assert metrics.auc >= 0.95
        assert metrics.mean_average_precision >= 0.95

    def test_blobs_learn_with_squared_distance_loss(self):
        labels = three_label_space()
        ds = blob_dataset()
        cfg = TrainConfig(loss=IDENTITY_LOSS, epochs=10)
        res = sgd_train(ds, labels, cfg)
        assert evaluate(res.model, ds).auc >= 0.95


class TestEvaluate:
    def single_label_dataset(self):
        # one-hot features aligned with labels so a scaled identity weight
        # matrix ranks them perfectly
        eye = np.eye(3)
        feats = np.vstack([eye, eye])
        labels = np.vstack([np.eye(3, dtype=int), np.eye(3, dtype=int)])
        return Dataset(features=feats, labels=labels, label_names=("a", "b", "c"))

    def test_perfect_ranking(self):
        ds = self.single_label_dataset()
        metrics = evaluate(SoftmaxModel(weights=10.0 * np.eye(3)), ds)
        assert metrics.auc == 1.0
        assert metrics.mean_average_precision == 1.0

    def test_inverted_ranking(self):
        ds = self.single_label_dataset()
        metrics = evaluate(SoftmaxModel(weights=-10.0 * np.eye(3)), ds)
        assert metrics.auc == 0.0
        assert metrics.mean_average_precision == pytest.approx(1 / 3)

    def test_constant_scores_give_half(self):
        ds = self.single_label_dataset()
        metrics = evaluate(SoftmaxModel(weights=np.zeros((3, 3))), ds)
        assert metrics.auc == 0.5

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(8)
        n = 10_000
        labels = np.zeros((n, 2), dtype=int)
        labels[: n // 2, 0] = 1
        labels[n // 2 :, 1] = 1
        ds = Dataset(
            features=rng.normal(size=(n, 4)),
            labels=labels,
            label_names=("a", "b"),
        )
        model = SoftmaxModel(weights=rng.normal(size=(4, 2)))
        metrics = evaluate(model, ds)
        assert metrics.auc == pytest.approx(0.5, abs=0.02)

    def test_single_class_rejected(self):
        ds = Dataset(
            features=np.ones((3, 2)),
            labels=np.ones((3, 2), dtype=int),
            label_names=("a", "b"),
        )
        with pytest.raises(ValueError, match="single class"):
            evaluate(SoftmaxModel(weights=np.zeros((2, 2))), ds)

    def test_average_precision_hand_value(self):
        # probabilities come out exactly (0.4, 0.3, 0.2, 0.1); relevant labels
        # sit at ranks 1 and 3, so AP = (1/1 + 2/3) / 2 and AUC = 3/4
        model = SoftmaxModel(weights=np.log([[0.4, 0.3, 0.2, 0.1]]))
        ds = Dataset(
            features=np.array([[1.0]]),
            labels=np.array([[1, 0, 1, 0]]),
            label_names=("a", "b", "c", "d"),
        )
        metrics = evaluate(model, ds)
        assert metrics.mean_average_precision == pytest.approx(5 / 6, abs=1e-12)
        assert metrics.auc == pytest.approx(3 / 4, abs=1e-12)

    @pytest.mark.parametrize("tied", [False, True])
    def test_auc_matches_the_rankdata_formula(self, tied):
        """The tie-averaged ranks are scipy.stats.rankdata's, so the AUC is
        the rank-sum formula's on tied and untied scores. Repeated feature
        rows and a zero weight column give exactly equal scores."""
        rankdata = pytest.importorskip("scipy.stats").rankdata
        rng = np.random.default_rng(21)
        features = rng.normal(size=(40, 4))
        weights = rng.normal(size=(4, 5))
        if tied:
            features = np.repeat(features[:10], 4, axis=0)
            weights[:, 3] = weights[:, 1] = 0.0
        labels = (rng.random((40, 5)) < 0.3).astype(int)
        labels[:, 0] = 1
        model = SoftmaxModel(weights=weights)
        ds = Dataset(features=features, labels=labels, label_names=tuple("abcde"))
        scores = model.probabilities(features).ravel()
        ranks = rankdata(scores)
        assert (len(np.unique(scores)) < scores.size) == tied
        assert np.array_equal(classifier_mod._average_ranks(scores), ranks)
        relevant = labels.ravel().astype(bool)
        n_pos = int(relevant.sum())
        n_neg = relevant.size - n_pos
        want = (ranks[relevant].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        assert evaluate(model, ds).auc == want

    @pytest.mark.parametrize("n_labels", [5, 2])
    def test_label_count_mismatch(self, n_labels):
        """A dataset whose label count is not the model's is refused with
        both counts."""
        labels = np.zeros((4, n_labels), dtype=int)
        labels[:, 0] = 1
        ds = Dataset(
            features=np.ones((4, 2)),
            labels=labels,
            label_names=tuple(f"l{i}" for i in range(n_labels)),
        )
        model = SoftmaxModel(weights=np.zeros((2, 3)))
        with pytest.raises(ValueError, match=f"dataset has {n_labels} labels, model has 3"):
            evaluate(model, ds)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        model = SoftmaxModel(weights=rng.normal(size=(7, 4)))
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        assert loaded.n_features == 7
        assert loaded.n_labels == 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAMODL" + b"\x00" * 32)
        with pytest.raises(ValueError, match="bad magic"):
            load_model(path)

    def test_bad_version(self, tmp_path):
        model = SoftmaxModel(weights=np.zeros((2, 2)))
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[6] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="unsupported .npy header"):
            load_model(path)

    def test_truncated_payload(self, tmp_path):
        """A payload 5 bytes short, or 1 byte long, is refused by its size."""
        model = SoftmaxModel(weights=np.ones((3, 3)))
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        blob = path.read_bytes()
        for damaged, size in [(blob[:-5], 67), (blob + b"\x00", 73)]:
            path.write_bytes(damaged)
            with pytest.raises(ValueError, match=f"payload is {size} bytes, expected 72"):
                load_model(path)

    @pytest.mark.parametrize("fault", FAULTS)
    def test_damaged_or_foreign_file_rejected_by_path(self, tmp_path, fault):
        path = tmp_path / "model.ckpt"
        path.write_bytes(fault_bytes(npy_bytes(np.ones((3, 3))), "<f8")[fault])
        with pytest.raises(ValueError, match=refusal(path, "<f8", fault)):
            load_model(path)
