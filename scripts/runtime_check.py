"""Run every public entry point of ``wrot`` and report any SciPy module loaded.

The package's only runtime dependency is numpy. This script imports the
``wrot`` on its path and, in a temporary directory on tiny generated inputs:

- calls every public function of ``wrot.__all__``, and fails naming any it
  did not call;
- solves the distance and the loss with every adversary family and the
  identity metric, with and without a feature grouping, and takes the
  loss gradient at a one-hot and at a two-hot target;
- trains a short ``sgd_train``, evaluates it and round-trips its checkpoint;
- runs the four ``wrot`` subcommands, each of which must exit 0.

Run it in a fresh interpreter, with or without SciPy installed:

    python scripts/runtime_check.py

Exits 0 when every check passed and no ``scipy`` module was loaded, and 1
otherwise, naming the loaded ``scipy`` modules or the failed check.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import wrot
from wrot import (
    DSConfig,
    FWConfig,
    KLConfig,
    LabelSpace,
    PNormConfig,
    TrainConfig,
)
from wrot.cli import main as cli_main

FAMILIES = [None, PNormConfig(k=1), PNormConfig(k=2), KLConfig(), DSConfig()]
LABELS = ("a", "b", "c")


def recording_api(called):
    """``wrot``'s public names, each function wrapped to add its name to
    ``called`` when it runs."""

    def recorded(name, fn):
        def run(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return run

    names = {name: getattr(wrot, name) for name in wrot.__all__}
    return SimpleNamespace(
        **{n: recorded(n, obj) if inspect.isfunction(obj) else obj for n, obj in names.items()}
    )


def exercise_library(api, work):
    rng = np.random.default_rng(0)
    src = api.make_measure(rng.normal(size=(5, 4)))
    tgt = api.make_measure(rng.normal(size=(6, 4)) + 1.0, rng.random(6) + 0.1)
    grouping = api.make_grouping(4, 2, 0)
    plan = api.TransportPlan(matrix=np.outer(src.weights, tgt.weights))
    moment = api.displacement_second_moment(plan, src, tgt)
    api.displacement_second_moment(plan, src, tgt, grouping)
    api.feature_weights(moment)
    api.feature_selection_objective(moment)

    emb = rng.normal(size=(3, 4))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    spaces = [LabelSpace(emb), LabelSpace(emb, grouping)]
    predicted = np.array([1.0, 2.0, 3.0]) / 6.0
    # a one-hot target has one plan and no oracle solve; a two-hot one runs the oracle
    target, two_hot = np.eye(3)[0], np.array([0.5, 0.0, 0.5])
    for metric in FAMILIES:
        api.adversarial_value(moment, metric)
        for group in (None, grouping):
            result = api.rot_distance(src, tgt, FWConfig(metric, max_iter=3), group)
            result.plan, result.metric  # built on first read
        for space in spaces:
            config = FWConfig(metric, max_iter=2, gap_tol=None)
            loss = api.rot_loss(predicted, target, space, config, lambda_gamma=0.05)
            loss.plan, loss.metric
            api.rot_loss_gradient(predicted, target, space, config)
            api.rot_loss_gradient(predicted, two_hot, space, config)

    features = rng.normal(size=(12, 4))
    api.save_features(work / "x.feat", features)
    api.save_labels(work / "y.labels", np.eye(3, dtype=int)[np.arange(12) % 3])
    rows = "".join(f"{n} {' '.join(map(str, e))}\n" for n, e in zip(LABELS, emb))
    (work / "emb.txt").write_text(f"3 4\n{rows}", encoding="utf-8")
    np.savetxt(work / "x.csv", features, delimiter=",")
    names, _ = api.load_embedding_file(work / "emb.txt")
    dataset = api.load_dataset(work / "x.feat", work / "y.labels", label_names=names)
    space = LabelSpace(api.load_embeddings(work / "emb.txt", names))
    model = api.sgd_train(dataset, space, TrainConfig(epochs=2)).model
    api.evaluate(model, dataset)
    api.save_model(model, work / "model.bin")
    loaded = api.load_model(work / "model.bin")
    if not np.array_equal(loaded.weights, model.weights):
        return ["the checkpoint round trip changed the weights"]
    loaded.probabilities(features)
    return []


def run_commands(work):
    """The four subcommands on the files :func:`exercise_library` wrote;
    returns a message for each that did not exit 0."""
    w = str(work)
    commands = [
        ["distance", "--src", f"{w}/x.csv", "--tgt", f"{w}/x.feat", "--gap-tol", "1e6", "--json"],
        ["distance", "--src", f"{w}/x.csv", "--tgt", f"{w}/x.feat", "--family", "w22"],
        ["distance", "--src", f"{w}/x.csv", "--tgt", f"{w}/x.feat", "--family", "w22",
         "--r", "2"],
        ["contour", "--labels", ",".join(LABELS), "--embeddings", f"{w}/emb.txt",
         "--grid-n", "3", "--out", f"{w}/contour.csv"],
        ["contour", "--labels", ",".join(LABELS), "--embeddings", f"{w}/emb.txt",
         "--family", "w22", "--grid-n", "3", "--out", f"{w}/contour.csv"],
        ["train", "--features", f"{w}/x.feat", "--labels", f"{w}/y.labels",
         "--embeddings", f"{w}/emb.txt", "--epochs", "1", "--model-out", f"{w}/cli.bin"],
        ["eval", "--model-in", f"{w}/cli.bin", "--features", f"{w}/x.feat",
         "--labels", f"{w}/y.labels", "--metrics-json", f"{w}/metrics.json"],
    ]
    problems = []
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli_main(argv)
        if code != 0:
            problems.append(f"wrot {argv[0]} exited {code}: {out.getvalue().strip()}")
    return problems


def main() -> int:
    called: set[str] = set()
    api = recording_api(called)
    with tempfile.TemporaryDirectory(prefix="wrot_runtime_") as tmp:
        problems = exercise_library(api, Path(tmp)) + run_commands(Path(tmp))
    functions = {n for n in wrot.__all__ if inspect.isfunction(getattr(wrot, n))}
    problems += [f"public function not called: {n}" for n in sorted(functions - called)]
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    if loaded:
        problems.append(f"scipy modules loaded: {', '.join(loaded)}")
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print(f"{len(called)} public functions and 4 commands ran; no scipy module loaded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
