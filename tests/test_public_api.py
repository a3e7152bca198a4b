"""The package's export list: no duplicates, no stale names, and exactly the
library modules' own exports."""

import importlib

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
