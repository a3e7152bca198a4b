"""The package's export list: no duplicates, no stale names, and exactly the
library modules' own exports; and the exported types that hold arrays
compare and hash without raising."""

import importlib

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
