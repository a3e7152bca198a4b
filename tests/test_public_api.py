"""The package's export list: a pinned set of names, no duplicates, no
stale names, and exactly the library modules' own exports; the exported
types that hold arrays compare and hash without raising; and importing the
package leaves SciPy's heavy submodules unloaded."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wrot

# every module but cli, which exports only its entry point; imported by name
# because the package rebinds ``wrot.rot_loss`` to the function
LIBRARY_MODULES = [
    importlib.import_module(f"wrot.{name}")
    for name in (
        "classifier",
        "data_io",
        "frank_wolfe",
        "measures",
        "metric_solvers",
        "rot_loss",
        "sinkhorn",
    )
]


# Adding or removing a public name is a deliberate edit of this list.
PUBLIC_NAMES = [
    "AdversarialMetric",
    "DSConfig",
    "Dataset",
    "DiscreteMeasure",
    "EvalMetrics",
    "FWConfig",
    "FeatureGrouping",
    "KLConfig",
    "LabelSpace",
    "LossValue",
    "MetricSolverConfig",
    "PNormConfig",
    "RotLossConfig",
    "RotResult",
    "SinkhornConfig",
    "SinkhornConvergenceError",
    "SoftmaxModel",
    "TrainConfig",
    "TrainResult",
    "TrainingDivergedError",
    "TransportPlan",
    "adversarial_value",
    "displacement_second_moment",
    "entropic_ot",
    "evaluate",
    "exact_ot_small",
    "feature_selection_objective",
    "feature_weights",
    "independent_coupling",
    "load_dataset",
    "load_embedding_file",
    "load_embeddings",
    "load_model",
    "make_grouping",
    "make_measure",
    "rot_distance",
    "rot_loss",
    "rot_loss_gradient",
    "save_features",
    "save_labels",
    "save_model",
    "sgd_train",
    "smooth_target",
    "w22_distance",
]

# deleted with no caller outside the tests, or as a pass-through to
# adversarial_value, each from its module
DELETED = [
    ("data_io", "load_grouping"),
    ("data_io", "save_grouping"),
    ("frank_wolfe", "gradient_wrt_plan"),
    ("metric_solvers", "ds_metric"),
    ("metric_solvers", "euclidean_metric"),
    ("metric_solvers", "kl_metric"),
    ("metric_solvers", "pnorm_metric"),
    ("sinkhorn", "symmetric_scaling"),
]


def test_all_is_the_pinned_list():
    assert sorted(wrot.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("module, name", DELETED)
def test_deleted_names_stay_deleted(module, name):
    assert not hasattr(wrot, name)
    assert not hasattr(importlib.import_module(f"wrot.{module}"), name)


def test_all_has_no_duplicates():
    assert len(wrot.__all__) == len(set(wrot.__all__))


def test_every_export_resolves():
    missing = [name for name in wrot.__all__ if not hasattr(wrot, name)]
    assert missing == []


def test_all_is_the_union_of_library_exports():
    union = set().union(*(module.__all__ for module in LIBRARY_MODULES))
    assert set(wrot.__all__) == union


ARRAY_HOLDERS = {
    "DiscreteMeasure": lambda: wrot.make_measure(np.eye(2)),
    "TransportPlan": lambda: wrot.TransportPlan(np.full((2, 2), 0.25)),
    "FeatureGrouping": lambda: wrot.make_grouping(10, 3, 1),
    "AdversarialMetric": lambda: wrot.AdversarialMetric(np.eye(2), 1.0, "kl"),
    "SoftmaxModel": lambda: wrot.SoftmaxModel(np.zeros((3, 2))),
    "LabelSpace": lambda: wrot.LabelSpace(np.eye(3)),
    "KLConfig": lambda: wrot.KLConfig(m0=np.eye(2)),
    "DSConfig": lambda: wrot.DSConfig(m0=np.full((2, 2), 0.5)),
    "Dataset": lambda: wrot.Dataset(np.zeros((2, 3)), np.eye(2), ("a", "b")),
}


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holders_compare_and_hash_by_identity(name):
    """Value equality would take the truth value of an array comparison."""
    make = ARRAY_HOLDERS[name]
    first, second = make(), make()
    assert type(first).__name__ == name
    assert first == first and first != second
    assert hash(first) == hash(first)
    assert len({first, second}) == 2


def test_config_holding_arrays_compares_and_hashes():
    metric = wrot.KLConfig(m0=np.eye(2))
    grouping = wrot.make_grouping(10, 3, 1)
    first = wrot.FWConfig(metric, grouping=grouping)
    second = wrot.FWConfig(metric, grouping=grouping)
    assert first == second and hash(first) == hash(second)
    assert first != wrot.FWConfig(wrot.KLConfig(m0=np.eye(2)), grouping=grouping)


def test_import_loads_neither_scipy_stats_nor_optimize():
    """``exact_ot_small`` imports what it uses from SciPy when called, and
    ``evaluate`` ranks with numpy alone, so importing the package and its
    CLI and evaluating a model loads neither ``scipy.stats`` nor
    ``scipy.optimize``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = (
        "import sys, numpy as np, wrot, wrot.cli; "
        "ds = wrot.Dataset(features=np.eye(2), labels=np.eye(2, dtype=int), "
        "label_names=('a', 'b')); "
        "wrot.evaluate(wrot.SoftmaxModel(weights=np.eye(2)), ds); "
        "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
