import argparse
import importlib
import json
import re

import numpy as np
import pytest
from npy_faults import FAULTS, fault_bytes, refusal
from numpy.lib import format as npy

from wrot.classifier import SoftmaxModel, save_model
from wrot.cli import _build_parser, main
from wrot.data_io import save_features, save_labels

classifier_mod = importlib.import_module("wrot.classifier")


def write_csv(path, features):
    """A CSV feature file that reads back to the same float64 values."""
    np.savetxt(path, features, fmt="%.17g", delimiter=",")


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def cloud_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("clouds")
    paths = {
        "src2": str(d / "src2.csv"),
        "tgt2": str(d / "tgt2.csv"),
        "separated": str(d / "separated.csv"),
        "a": str(d / "a.csv"),
        "b": str(d / "b.csv"),
        "wide_a": str(d / "wide_a.csv"),
        "wide_b": str(d / "wide_b.csv"),
    }
    write_csv(paths["src2"], np.array([[0.0, 0.0], [1.0, 1.0]]))
    write_csv(paths["tgt2"], np.array([[1.0, 0.0], [0.0, 1.0]]))
    # mutual squared distance 50 between any two rows, so the entropic plan
    # leaks essentially nothing off the diagonal
    write_csv(paths["separated"], 5.0 * np.eye(4)[:, :3])
    rng = np.random.default_rng(11)
    write_csv(paths["a"], 0.6 * rng.normal(size=(4, 3)))
    write_csv(paths["b"], 0.6 * rng.normal(size=(5, 3)) + 0.4)
    # standard normals times 30: squared distances in the thousands, so the
    # default lambda_beta puts max|cost| / lambda_beta far past 700
    rng = np.random.default_rng(1)
    write_csv(paths["wide_a"], 30.0 * rng.normal(size=(6, 3)))
    write_csv(paths["wide_b"], 30.0 * rng.normal(size=(5, 3)))
    return paths


@pytest.fixture(scope="module")
def contour_embeddings(tmp_path_factory):
    path = tmp_path_factory.mktemp("emb") / "three.txt"
    path.write_text("3 3\nalpha 1 0 0\nbeta -1 0 0\ngamma 0.8 0.6 0\n")
    return str(path)


@pytest.fixture(scope="module")
def blob_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("blobs")
    rng = np.random.default_rng(5)
    centers = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 2.5]])
    per = 12
    features = np.vstack(
        [c + 0.4 * rng.normal(size=(per, 2)) for c in centers]
    )
    hard = np.repeat(np.arange(3), per)
    paths = {
        "features": str(d / "features.csv"),
        "labels": str(d / "labels.txt"),
        "embeddings": str(d / "embeddings.txt"),
        "wide_features": str(d / "wide.csv"),
    }
    write_csv(paths["features"], features)
    save_labels(paths["labels"], np.eye(3, dtype=int)[hard])
    write_csv(paths["wide_features"], np.hstack([features, np.ones((features.shape[0], 1))]))
    with open(paths["embeddings"], "w", encoding="utf-8") as fh:
        fh.write("3 3\nlabel_0 1 0 0\nlabel_1 0 1 0\nlabel_2 0 0 1\n")
    return paths


def read_contour(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return lines[0], rows


class TestDistance:
    def test_two_by_two_pnorm_value(self, cloud_files, capsys):
        code, out, _ = invoke(
            ["distance", "--src", cloud_files["src2"], "--tgt", cloud_files["tgt2"],
             "--json"],
            capsys,
        )
        assert code == 0
        result = json.loads(out)
        assert result["family"] == "pnorm"
        assert result["value"] == pytest.approx(np.sqrt(0.5), abs=1e-3)

    def test_two_by_two_w22_value(self, cloud_files, capsys):
        code, out, _ = invoke(
            ["distance", "--src", cloud_files["src2"], "--tgt", cloud_files["tgt2"],
             "--family", "w22", "--json"],
            capsys,
        )
        assert code == 0
        result = json.loads(out)
        assert result["value"] == pytest.approx(1.0, abs=1e-3)
        # every pairing costs 1, so the oracle's plan is the starting p q^T:
        # the loop measures a gap of 0 at its first iterate and stops
        assert result["gap"] == 0.0
        assert result["iterations"] == 1

    def test_grouped_w22_matches_the_ungrouped_value(self, cloud_files, capsys):
        """A grouping's pad, permutation and reshape leave tr V unchanged."""
        values = []
        for extra in ([], ["--r", "2"]):
            code, out, _ = invoke(
                ["distance", "--src", cloud_files["a"], "--tgt", cloud_files["b"],
                 "--family", "w22", "--json", *extra],
                capsys,
            )
            assert code == 0
            values.append(json.loads(out)["value"])
        assert values[1] == pytest.approx(values[0], rel=1e-12)

    @pytest.mark.parametrize("family", ["pnorm", "w22"])
    @pytest.mark.parametrize(
        "flags, field", [(["--fw-iters", "0"], "max_iter"), (["--gap-tol", "-5"], "gap_tol")]
    )
    def test_every_family_checks_the_solver_settings(
        self, cloud_files, family, flags, field, capsys
    ):
        """w22 runs the same Frank-Wolfe loop as the other families, so it
        refuses the same bad settings."""
        code, out, err = invoke(
            ["distance", "--src", cloud_files["src2"], "--tgt", cloud_files["tgt2"],
             "--family", family, *flags, "--json"],
            capsys,
        )
        assert code == 1 and out == ""
        assert f"error: {field} must be" in err

    def test_identical_clouds_near_zero(self, cloud_files, capsys):
        code, out, _ = invoke(
            ["distance", "--src", cloud_files["separated"],
             "--tgt", cloud_files["separated"], "--json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["value"] <= 1e-3

    @pytest.mark.parametrize("family", ["pnorm", "kl", "ds", "w22"])
    def test_json_keys_are_stable(self, cloud_files, family, capsys):
        code, out, _ = invoke(
            ["distance", "--src", cloud_files["a"], "--tgt", cloud_files["b"],
             "--family", family, "--json"],
            capsys,
        )
        assert code == 0
        result = json.loads(out)
        assert list(result) == ["value", "gap", "iterations", "family"]
        assert result["family"] == family
        assert np.isfinite(result["value"]) and result["value"] > 0

    @pytest.mark.parametrize("family", ["pnorm", "w22"])
    def test_wide_clouds_solve_at_default_settings(self, cloud_files, family, capsys):
        code, out, err = invoke(
            ["distance", "--src", cloud_files["wide_a"], "--tgt", cloud_files["wide_b"],
             "--family", family, "--json"],
            capsys,
        )
        assert code == 0, err
        assert np.isfinite(json.loads(out)["value"])

    def test_text_output_lists_fields(self, cloud_files, capsys):
        code, out, _ = invoke(
            ["distance", "--src", cloud_files["a"], "--tgt", cloud_files["b"]],
            capsys,
        )
        assert code == 0
        started = [line.split()[0] for line in out.strip().split("\n")]
        assert started == ["family", "value", "gap", "iterations"]

    @pytest.mark.parametrize("family", ["pnorm", "w22"])
    def test_nonconvergence_warns_and_exits_2(self, cloud_files, family, capsys):
        """w22 runs the same Frank-Wolfe loop, so it too honours --fw-iters
        and --gap-tol and reports the gap it measured."""
        code, out, err = invoke(
            ["distance", "--src", cloud_files["a"], "--tgt", cloud_files["b"],
             "--family", family, "--fw-iters", "1", "--gap-tol", "0", "--json"],
            capsys,
        )
        assert code == 2
        assert "warning" in err and "gap" in err
        result = json.loads(out)  # the value is still reported
        assert result["iterations"] == 1
        assert result["gap"] > 0

    def test_grouped_distance_is_seeded(self, cloud_files, capsys):
        argv = ["distance", "--src", cloud_files["a"], "--tgt", cloud_files["b"],
                "--r", "2", "--seed", "3", "--json"]
        code, first, _ = invoke(argv, capsys)
        assert code == 0
        code, second, _ = invoke(argv, capsys)
        assert code == 0
        assert first == second
        assert np.isfinite(json.loads(first)["value"])

    def test_missing_input_exits_1(self, cloud_files, tmp_path, capsys):
        code, _, err = invoke(
            ["distance", "--src", str(tmp_path / "absent.csv"),
             "--tgt", cloud_files["b"], "--json"],
            capsys,
        )
        assert code == 1
        assert "error" in err

    def test_unknown_flag_exits_1(self, cloud_files, capsys):
        code, _, _ = invoke(
            ["distance", "--src", cloud_files["a"], "--tgt", cloud_files["b"],
             "--frobnicate"],
            capsys,
        )
        assert code == 1

    def test_help_exits_0(self, capsys):
        assert invoke(["--help"], capsys)[0] == 0

    def test_every_option_has_help(self):
        """Each option of each subcommand says what it sets, and each one
        with a default shows it."""
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for name, parser in sub.choices.items():
            for action in parser._actions:
                assert action.help, f"wrot {name} {action.option_strings} has no help"
                if not (action.required or action.default in (None, False, argparse.SUPPRESS)):
                    assert "%(default)s" in action.help, f"wrot {name} {action.dest}"

    def test_no_subcommand_exits_1(self, capsys):
        assert invoke([], capsys)[0] == 1


class TestContour:
    def test_csv_contract(self, contour_embeddings, tmp_path, capsys):
        out_csv = str(tmp_path / "contour.csv")
        code, out, _ = invoke(
            ["contour", "--labels", "alpha,beta,gamma",
             "--embeddings", contour_embeddings, "--grid-n", "6", "--out", out_csv],
            capsys,
        )
        assert code == 0
        assert "wrote 21 grid losses" in out
        header, rows = read_contour(out_csv)
        assert header == "x,y,loss"
        assert rows.shape == (21, 3)
        assert rows[:, 0].max() <= 1.0 and rows[:, 1].max() <= 1.0
        assert np.all(rows[:, 0] + rows[:, 1] <= 1.0 + 1e-9)
        assert rows[:, 2].max() == pytest.approx(1.0, abs=1e-12)

    def test_true_corner_is_grid_minimum(self, contour_embeddings, tmp_path, capsys):
        out_csv = str(tmp_path / "contour.csv")
        code, _, _ = invoke(
            ["contour", "--labels", "alpha,beta,gamma",
             "--embeddings", contour_embeddings, "--grid-n", "6", "--out", out_csv],
            capsys,
        )
        assert code == 0
        _, rows = read_contour(out_csv)
        corner = (rows[:, 0] == 0.0) & (rows[:, 1] == 0.0)
        assert corner.sum() == 1
        assert rows[corner, 2][0] == rows[:, 2].min()

    def test_lambda_gamma_shapes_the_surface(self, contour_embeddings, tmp_path, capsys):
        """contour keeps --lambda-gamma: it weights the entropy term of every
        loss the command writes."""
        surfaces = []
        for extra in ([], ["--lambda-gamma", "0.05"]):
            out_csv = str(tmp_path / "contour.csv")
            code, _, _ = invoke(
                ["contour", "--labels", "alpha,beta,gamma", "--embeddings", contour_embeddings,
                 "--grid-n", "6", "--out", out_csv, *extra],
                capsys,
            )
            assert code == 0
            surfaces.append(read_contour(out_csv)[1][:, 2])
        assert not np.array_equal(*surfaces)

    @pytest.mark.parametrize("family", ["pnorm", "kl", "ds", "w22"])
    def test_nearby_prediction_loses_less(
        self, contour_embeddings, family, tmp_path, capsys
    ):
        """gamma is the true label; alpha sits much closer to it than beta."""
        out_csv = str(tmp_path / "contour.csv")
        code, _, _ = invoke(
            ["contour", "--labels", "alpha,beta,gamma", "--family", family,
             "--embeddings", contour_embeddings, "--grid-n", "2", "--out", out_csv],
            capsys,
        )
        assert code == 0
        _, rows = read_contour(out_csv)
        value = {(x, y): loss for x, y, loss in rows}
        assert value[(1.0, 0.0)] < value[(0.0, 1.0)]

    @pytest.mark.parametrize("flag, value", [("--fw-iters", "3"), ("--lambda-beta", "0.1")])
    def test_solver_settings_are_not_contour_flags(
        self, contour_embeddings, flag, value, tmp_path, capsys
    ):
        """contour scores against a one-hot target, whose one plan needs no
        Frank-Wolfe step and no Sinkhorn oracle, so neither setting could
        move what it writes."""
        code, _, err = invoke(
            ["contour", "--labels", "alpha,beta,gamma", "--embeddings", contour_embeddings,
             "--out", str(tmp_path / "c.csv"), flag, value],
            capsys,
        )
        assert code == 1
        assert f"unrecognized arguments: {flag}" in err

    def test_unknown_label_exits_1(self, contour_embeddings, tmp_path, capsys):
        code, _, err = invoke(
            ["contour", "--labels", "alpha,beta,nope",
             "--embeddings", contour_embeddings,
             "--out", str(tmp_path / "c.csv")],
            capsys,
        )
        assert code == 1
        assert "labels not in embedding file" in err

    def test_needs_exactly_three_labels(self, contour_embeddings, tmp_path, capsys):
        code, _, err = invoke(
            ["contour", "--labels", "alpha,beta",
             "--embeddings", contour_embeddings,
             "--out", str(tmp_path / "c.csv")],
            capsys,
        )
        assert code == 1
        assert "exactly 3" in err

    @pytest.mark.parametrize("grid_n", ["-1", "0", "1"])
    def test_grid_below_two_points_exits_1(
        self, contour_embeddings, grid_n, tmp_path, capsys
    ):
        out_csv = tmp_path / "c.csv"
        code, _, err = invoke(
            ["contour", "--labels", "alpha,beta,gamma",
             "--embeddings", contour_embeddings, "--grid-n", grid_n,
             "--out", str(out_csv)],
            capsys,
        )
        assert code == 1
        assert f"--grid-n must be at least 2, got {grid_n}" in err
        assert not out_csv.exists()


class TestTrainEval:
    def train_argv(self, blob_files, model_out, extra=()):
        return [
            "train", "--features", blob_files["features"],
            "--labels", blob_files["labels"],
            "--embeddings", blob_files["embeddings"],
            "--epochs", "5", "--model-out", model_out, *extra,
        ]

    def test_round_trip_learns(self, blob_files, tmp_path, capsys):
        model_out = str(tmp_path / "model.ckpt")
        code, out, _ = invoke(self.train_argv(blob_files, model_out), capsys)
        assert code == 0
        epoch_lines = [l for l in out.split("\n") if l.startswith("epoch")]
        assert len(epoch_lines) == 5
        losses = [float(l.split()[3]) for l in epoch_lines]
        assert losses[-1] < losses[0]
        assert f"wrote model to {model_out}" in out

        metrics_json = str(tmp_path / "metrics.json")
        code, out, _ = invoke(
            ["eval", "--model-in", model_out,
             "--features", blob_files["features"],
             "--labels", blob_files["labels"],
             "--metrics-json", metrics_json],
            capsys,
        )
        assert code == 0
        assert out.startswith("auc ") and "\nmap " in out
        with open(metrics_json, "r", encoding="utf-8") as fh:
            metrics = json.load(fh)
        assert set(metrics) == {"auc", "map"}
        assert metrics["auc"] >= 0.95

    def test_lambda_gamma_is_not_a_train_flag(self, blob_files, tmp_path, capsys):
        """train has no --lambda-gamma: the entropy weight moves only the
        printed loss, never the checkpoint (see test_classifier)."""
        argv = self.train_argv(blob_files, str(tmp_path / "m.ckpt"), ["--lambda-gamma", "0.5"])
        code, _, err = invoke(argv, capsys)
        assert code == 1
        assert "unrecognized arguments: --lambda-gamma" in err

    def test_same_seed_reproduces_checkpoint(self, blob_files, tmp_path, capsys):
        first = str(tmp_path / "first.ckpt")
        second = str(tmp_path / "second.ckpt")
        other = str(tmp_path / "other.ckpt")
        assert invoke(self.train_argv(blob_files, first, ["--seed", "0"]), capsys)[0] == 0
        assert invoke(self.train_argv(blob_files, second, ["--seed", "0"]), capsys)[0] == 0
        assert invoke(self.train_argv(blob_files, other, ["--seed", "1"]), capsys)[0] == 0
        with open(first, "rb") as fh:
            first_bytes = fh.read()
        with open(second, "rb") as fh:
            assert fh.read() == first_bytes
        with open(other, "rb") as fh:
            assert fh.read() != first_bytes

    def test_grouped_train_then_eval(self, blob_files, tmp_path, capsys):
        """A grouped run is rebuilt from --r and --seed, so it writes only
        the checkpoint, which eval reads alone; no grouping file option is
        left."""
        model_out = str(tmp_path / "model.ckpt")
        code, out, _ = invoke(
            self.train_argv(blob_files, model_out, ["--epochs", "2", "--r", "3"]),
            capsys,
        )
        assert code == 0
        assert "grouping" not in out

        code, out, _ = invoke(
            ["eval", "--model-in", model_out,
             "--features", blob_files["features"],
             "--labels", blob_files["labels"]],
            capsys,
        )
        assert code == 0
        assert out.startswith("auc ")
        grouping_out = str(tmp_path / "grouping.txt")
        argv = self.train_argv(blob_files, model_out, ["--grouping-out", grouping_out])
        assert invoke(argv, capsys)[0] == 1

    def test_eval_dim_mismatch_exits_1(self, blob_files, tmp_path, capsys):
        model_out = str(tmp_path / "model.ckpt")
        assert invoke(self.train_argv(blob_files, model_out), capsys)[0] == 0
        code, _, err = invoke(
            ["eval", "--model-in", model_out,
             "--features", blob_files["wide_features"],
             "--labels", blob_files["labels"]],
            capsys,
        )
        assert code == 1
        assert "model expects 2" in err

    def test_eval_missing_model_exits_1(self, blob_files, tmp_path, capsys):
        code, _, err = invoke(
            ["eval", "--model-in", str(tmp_path / "absent.ckpt"),
             "--features", blob_files["features"],
             "--labels", blob_files["labels"]],
            capsys,
        )
        assert code == 1
        assert "error" in err

    def test_eval_truncated_model_header_exits_1(self, blob_files, tmp_path, capsys):
        """A checkpoint cut inside its header is bad input, not a crash: the
        .npy magic and one byte of the version."""
        model_in = tmp_path / "cut.ckpt"
        model_in.write_bytes(npy.MAGIC_PREFIX + b"\x01")
        code, _, err = invoke(
            ["eval", "--model-in", str(model_in),
             "--features", blob_files["features"],
             "--labels", blob_files["labels"]],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: ")
        assert "truncated or unsupported .npy header" in err

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("damaged", ["--model-in", "--features"])
    def test_eval_damaged_or_foreign_file_exits_1(
        self, blob_files, tmp_path, capsys, damaged, fault
    ):
        """Every fault the readers refuse is bad input naming the file."""
        paths = {"--model-in": tmp_path / "model.ckpt", "--features": tmp_path / "x.npy"}
        save_model(SoftmaxModel(weights=np.zeros((2, 3))), paths["--model-in"])
        save_features(paths["--features"], np.loadtxt(blob_files["features"], delimiter=","))
        dtype = {"--model-in": "<f8", "--features": "<f4"}[damaged]
        good = paths[damaged].read_bytes()
        paths[damaged].write_bytes(fault_bytes(good, dtype)[fault])
        code, _, err = invoke(
            ["eval", "--model-in", str(paths["--model-in"]),
             "--features", str(paths["--features"]),
             "--labels", blob_files["labels"]],
            capsys,
        )
        assert code == 1
        assert re.match("error: " + refusal(paths[damaged], dtype, fault), err)

    def test_zero_learning_rate_exits_1(self, blob_files, tmp_path, capsys):
        code, _, err = invoke(
            self.train_argv(blob_files, str(tmp_path / "m.ckpt"), ["--lr", "0"]),
            capsys,
        )
        assert code == 1
        assert "learning_rate" in err

    def test_divergence_exits_3(self, blob_files, tmp_path, monkeypatch, capsys):
        def explode(h, target, labels, loss_config):
            from types import SimpleNamespace

            return np.zeros(3), SimpleNamespace(value=2.0e6)

        monkeypatch.setattr(classifier_mod, "rot_loss_gradient", explode)
        code, _, err = invoke(
            self.train_argv(blob_files, str(tmp_path / "m.ckpt")), capsys
        )
        assert code == 3
        assert "diverged" in err

    def test_underflowed_prediction_exits_3(self, blob_files, tmp_path, capsys):
        """A learning rate of 1000 drives a softmax probability to an exact
        0 in the first epoch: a divergence, not bad input."""
        argv = self.train_argv(blob_files, str(tmp_path / "m.ckpt"), ["--lr", "1000"])
        code, _, err = invoke(argv, capsys)
        assert code == 3
        assert "diverged" in err and "underflowed to 0" in err
