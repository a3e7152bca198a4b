"""The three benchmark workloads: ``distance``, ``loss`` and ``grouped``.

Each workload generates its inputs (and the reference values the checks use)
from the seed when it is constructed; that work is neither timed nor part of
``setup_s``. ``setup`` builds the program's inputs from them with the package
(timed as ``setup_s``), and ``cycle`` runs one deterministic pass of the
workload, timing and checking every call it makes into ``wrot``.
"""

from __future__ import annotations

import hashlib
import io
import math
import statistics
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass
class Unit:
    """A timed piece of work: ``solves`` transport solves in ``seconds``.

    Units of one ``kind`` do the same work in every cycle of a run.
    """

    kind: str
    seconds: float
    solves: int
    reference_s: float  # reference kernel time next to the unit
    failed: bool = False


@dataclass
class Cycle:
    """What one pass of a workload did and how its outputs checked out."""

    units: list[Unit] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    # operation -> what failed in it, or None; an operation is one call with
    # fixed inputs and recurs in every cycle, so its outcome does too
    outcomes: dict[str, str | None] = field(default_factory=dict)
    fingerprint: list = field(default_factory=list)  # outputs, for the repeat check
    fw: list[tuple] = field(default_factory=list)  # (iterations, ms, converged, last gap)
    report: dict[str, float] = field(default_factory=dict)

    def attempt(self, operation):
        self.outcomes[operation] = None

    def fail(self, operation, problem):
        self.outcomes[operation] = problem


_REFERENCE_X = np.linspace(0.1, 1.0, 9).reshape(3, 3)
_REFERENCE_BUFFER = np.random.default_rng(0).normal(size=(600, 600))


def _reference_kernel():
    # Interpreter dispatch over tiny arrays, then streaming a buffer larger
    # than L2. The package's work mixes both; a slow phase of a shared
    # machine slows dispatch about 1.7x and streaming about 1.2x, and the
    # package's kinds of work fall in between.
    x, total, seen = _REFERENCE_X, 0.0, {}
    for i in range(100):
        y = np.exp(-x) / x.sum()
        seen[i % 7] = (y, i)
        total += float(np.max(np.abs(y - y.T))) + len(seen)
        x = 0.5 * (y + y.T) + 0.1
    for _ in range(2):
        total += float((_REFERENCE_BUFFER * 1.0001).sum())
    return total


class Reference:
    """The machine's current speed, as the time of a fixed kernel that does
    not touch the package, sampled between timed units."""

    def __init__(self, repeats=1):
        self.repeats = repeats
        self.last = self.sample()

    def sample(self) -> float:
        times = []
        for _ in range(self.repeats):
            started = perf_counter()
            _reference_kernel()
            times.append(perf_counter() - started)
        self.last = statistics.median(times)
        return self.last

    def around(self) -> float:
        """Mean of the previous sample and a new one: the speed around the
        unit timed between them."""
        before = self.last
        return 0.5 * (before + self.sample())


PLAIN, LOG = 0.2, 0.02  # Sinkhorn lambda_beta: package default, and log-domain regime


class Distance:
    """Repeated ``rot_distance`` / ``w22_distance`` solves over a fixed mix.

    Every family runs at every size with the package-default regularization
    (lambda_beta = 0.2, plain-domain Sinkhorn), except KL, which keeps a
    single plain-domain cell at package defaults; that cell raises
    ``OverflowError`` at the seed commit and counts as a failed operation.
    The log-domain regime (lambda_beta = 0.02) runs every family at the two
    smaller sizes. All cells of one size solve the same cloud pairs.
    """

    # size -> (points, dimension, cloud pairs); every 256x48 pair overflows
    # the plain-domain w22 cell, so that size gets few pairs to keep the
    # solves that raise well below a tenth of the attempts and the p90 finite
    SIZES = {"S": (32, 8, 12), "M": (128, 24, 12), "L": (256, 48, 3)}
    SHIFT = 2.0  # distance between the source and target means
    MAX_ITER = 10
    SANDWICH_RTOL = 1e-9
    CELLS = (
        [(fam, size, PLAIN) for size in "SML" for fam in ("pnorm1", "pnorm2", "ds", "w22")]
        + [("kl", "S", PLAIN)]
        + [(fam, size, LOG) for size in "SM" for fam in ("pnorm1", "pnorm2", "kl", "ds", "w22")]
    )

    def __init__(self, seed, workdir, wrot):
        rng = np.random.default_rng(seed)
        self.pairs = {}
        for size, (m, d, count) in self.SIZES.items():
            self.pairs[size] = []
            for _ in range(count):
                src = rng.normal(size=(m, d))
                tgt = rng.normal(size=(m, d)) + self.SHIFT / math.sqrt(d)
                cost = ((src[:, None, :] - tgt[None, :, :]) ** 2).sum(axis=2)
                rows, cols = linear_sum_assignment(cost)
                self.pairs[size].append((src, tgt, float(cost[rows, cols].mean())))

    def setup(self, wrot, trace):
        ms, fw, sk = wrot.metric_solvers, wrot.frank_wolfe, wrot.sinkhorn
        metrics = {
            "pnorm1": ms.PNormConfig(k=1),
            "pnorm2": ms.PNormConfig(k=2),
            "kl": ms.KLConfig(),
            "ds": ms.DSConfig(),
        }
        configs = {}
        for fam, size, lam in self.CELLS:
            sinkhorn = sk.SinkhornConfig() if lam == PLAIN else sk.SinkhornConfig(lambda_beta=lam)
            configs[fam, lam] = sinkhorn if fam == "w22" else fw.FWConfig(
                metric=metrics[fam], sinkhorn=sinkhorn, max_iter=self.MAX_ITER
            )
        measures = {
            size: [(wrot.measures.make_measure(s), wrot.measures.make_measure(t)) for s, t, _ in pairs]
            for size, pairs in self.pairs.items()
        }
        return SimpleNamespace(wrot=wrot, configs=configs, measures=measures)

    def cycle(self, inputs, trace) -> Cycle:
        fw = inputs.wrot.frank_wolfe
        out = Cycle()
        reference = Reference()
        for fam, size, lam in self.CELLS:
            cell = f"{fam}/{size}/{'plain' if lam == PLAIN else 'log'}"
            solve = fw.w22_distance if fam == "w22" else fw.rot_distance
            config = inputs.configs[fam, lam]
            for index, ((src, tgt), (_, _, w2)) in enumerate(zip(inputs.measures[size], self.pairs[size])):
                kind = f"{cell}#{index}"
                out.attempt(kind)
                started = perf_counter()
                try:
                    result = trace.call("frank_wolfe.loop", solve, src, tgt, config)
                except Exception as exc:  # a failed solve is data, not a crash
                    seconds = perf_counter() - started
                    out.units.append(Unit(kind, seconds, 1, reference.around(), failed=True))
                    out.ratios.append(math.inf)
                    out.fail(kind, f"{cell}: {type(exc).__name__}")
                    out.fingerprint.append(type(exc).__name__)
                    continue
                seconds = perf_counter() - started
                value = result if fam == "w22" else result.value
                out.units.append(Unit(kind, seconds, 1, reference.around()))
                out.ratios.append(value / w2)
                out.fingerprint.append(value)
                if fam != "w22":
                    out.fw.append((result.iterations_used, seconds * 1e3, result.converged,
                                   result.gap_history[-1]))
                problem = self._check(fam, value, None if fam == "w22" else result, tgt, w2)
                if problem:
                    out.fail(kind, f"{cell}: {problem}")
        return out

    def _check(self, fam, value, result, tgt, w2):
        if not (math.isfinite(value) and value >= 0):
            return "value is not finite and nonnegative"
        if result is not None:
            col_err = float(np.max(np.abs(result.plan.matrix.sum(axis=0) - tgt.weights)))
            if col_err > 1e-9:
                return f"plan column sums off by {col_err:.1e}"
        # the paper's sandwich for k = 1: W2^2 / sqrt(d) <= W_ROT <= W2^2
        if fam == "pnorm1" and value < w2 / math.sqrt(tgt.dim) * (1 - self.SANDWICH_RTOL):
            return "value below W2^2/sqrt(d)"
        return None


class Loss:
    """The 3-label path: SGD on Gaussian blobs read from files, and the
    ``wrot contour`` grid for every metric family, run in process.

    A cycle trains on four blob datasets drawn from the seed, each followed by
    one contour family, so the training epochs are timed at four places of
    the cycle and the loss ratio pools four draws of the data.
    """

    NAMES = ("first", "second", "third")
    N_PER_CLASS = 100
    N_FEATURES = 10
    EPOCHS = 20
    MIN_AUC = 0.95
    FAMILIES = ("pnorm", "kl", "ds", "w22")  # one contour after each training
    GRID_POINTS = 101 * 102 // 2  # the CLI's default 101-point grid

    def __init__(self, seed, workdir, wrot):
        rng = np.random.default_rng(seed)
        means = np.zeros((3, self.N_FEATURES))
        means[0, 0] = means[1, 1] = means[2, 2] = 3.0 / math.sqrt(2.0)
        self.paths = []  # per training: {split: (features, labels)}
        for index in range(len(self.FAMILIES)):
            paths = {}
            for split in ("train", "test"):
                classes = np.repeat(np.arange(3), self.N_PER_CLASS)
                features = means[classes] + rng.normal(size=(classes.size, self.N_FEATURES))
                paths[split] = (workdir / f"{split}{index}.feat", workdir / f"{split}{index}.labels")
                wrot.data_io.save_features(paths[split][0], features)
                wrot.data_io.save_labels(paths[split][1], np.eye(3, dtype=int)[classes])
            self.paths.append(paths)
        self.embeddings = workdir / "labels.emb"
        self.embeddings.write_text("3 3\nfirst 1 0 0\nsecond 0 1 0\nthird 0 0 1\n")

        # contour labels: a wrong label near the true one and one far from it
        basis = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        near, far = np.radians(rng.uniform(30, 50)), np.radians(rng.uniform(130, 160))
        rows = {
            "near": math.cos(near) * basis[:, 0] + math.sin(near) * basis[:, 1],
            "far": math.cos(far) * basis[:, 0] - math.sin(far) * basis[:, 1],
            "truth": basis[:, 0],
        }
        self.contour_embeddings = workdir / "contour.emb"
        self.contour_embeddings.write_text(
            "3 3\n" + "".join(f"{k} {' '.join(f'{v:.17g}' for v in row)}\n" for k, row in rows.items())
        )
        self.workdir = workdir

    def setup(self, wrot, trace):
        dio = wrot.data_io
        datasets = [
            {split: trace.call("data_io.load", dio.load_dataset, *files, label_names=self.NAMES)
             for split, files in paths.items()}
            for paths in self.paths
        ]
        emb = trace.call("data_io.load", dio.load_embeddings, self.embeddings, self.NAMES)
        labels = wrot.rot_loss.LabelSpace(embeddings=emb)
        return SimpleNamespace(wrot=wrot, datasets=datasets, labels=labels)

    def cycle(self, inputs, trace) -> Cycle:
        out = Cycle()
        reference = Reference(repeats=5)
        warm_s, contour_s, first, last, aucs = [], 0.0, 0.0, 0.0, []
        for index, (data, fam) in enumerate(zip(inputs.datasets, self.FAMILIES)):
            trained, auc = self._train(f"sgd_train#{index}", data, inputs, trace, out, reference)
            if trained is None:
                first, last = 1.0, math.inf  # a failed training counts as +inf
            else:
                warm_s += trained.epoch_seconds[1:]
                first += trained.epoch_losses[0]
                last += trained.epoch_losses[-1]
                aucs.append(auc)
            contour_s += self._contour(fam, inputs, trace, out)
        out.ratios.append(last / first)
        if warm_s:
            n = inputs.datasets[0]["train"].n_instances
            out.report["train_samples_per_s"] = n * len(warm_s) / sum(warm_s)
        if aucs:
            out.report["train_auc"] = statistics.median(aucs)
        out.report["contour_points_per_s"] = len(self.FAMILIES) * self.GRID_POINTS / contour_s
        return out

    def _train(self, operation, data, inputs, trace, out, reference):
        clf = inputs.wrot.classifier
        out.attempt(operation)
        reference.sample()
        try:
            trained = trace.call("classifier.sgd", clf.sgd_train, data["train"], inputs.labels,
                                 clf.TrainConfig(epochs=self.EPOCHS))
        except Exception as exc:
            out.fail(operation, f"sgd_train: {type(exc).__name__}")
            return None, None
        speed = reference.around()
        out.units += [Unit("train", s, data["train"].n_instances, speed) for s in trained.epoch_seconds[1:]]
        auc = clf.evaluate(trained.model, data["test"]).auc
        if not auc >= self.MIN_AUC:
            out.fail(operation, f"sgd_train: held-out AUC {auc:.4f} below {self.MIN_AUC}")
        out.fingerprint += [auc, *trained.epoch_losses]
        return trained, auc

    def _contour(self, fam, inputs, trace, out):
        csv = self.workdir / f"contour_{fam}.csv"
        argv = ["contour", "--labels", "near,far,truth", "--family", fam,
                "--embeddings", str(self.contour_embeddings), "--out", str(csv)]
        out.attempt(f"contour {fam}")
        with redirect_stdout(io.StringIO()):  # the CLI prints a summary line
            started = perf_counter()
            code = trace.call("cli.contour", inputs.wrot.cli.main, argv)
            seconds = perf_counter() - started
        problem = self._check_contour(code, csv)
        if problem:
            out.fail(f"contour {fam}", f"contour {fam}: {problem}")
        else:
            out.fingerprint.append(hashlib.sha256(csv.read_bytes()).hexdigest())
        return seconds

    def _check_contour(self, code, csv):
        if code != 0:
            return f"exit code {code}"
        rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        if rows.shape != (self.GRID_POINTS, 3):
            return f"{rows.shape[0]} grid rows, expected {self.GRID_POINTS}"
        if rows[:, 2].max() != 1.0:
            return f"maximum loss {rows[:, 2].max()!r}, expected exactly 1"
        loss = {(x, y): v for x, y, v in rows}
        if not loss[1.0, 0.0] < loss[0.0, 1.0]:
            return "the nearer wrong label does not lose less"
        return None


class Grouped:
    """SGD on 48 labels with 200-dimensional embeddings and random one-hot
    targets, over three label spaces: r = 40 (pair-Gram cache built), r = 100
    (over the cache cap, streamed moments) and ungrouped."""

    N_LABELS, DIM, N_SAMPLES, N_FEATURES = 48, 200, 48, 6
    GROUP_COUNTS = (40, 100, None)
    EPOCHS = 3  # the first epoch is cold and not timed

    def __init__(self, seed, workdir, wrot):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(self.N_LABELS, self.DIM))
        self.embeddings = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        self.features = rng.normal(size=(self.N_SAMPLES, self.N_FEATURES))
        self.targets = np.eye(self.N_LABELS, dtype=int)[rng.integers(0, self.N_LABELS, self.N_SAMPLES)]
        self.seed = seed

    def setup(self, wrot, trace):
        dio = wrot.data_io
        spaces = {}
        for r in self.GROUP_COUNTS:
            grouping = None if r is None else dio.make_grouping(self.DIM, r, self.seed)
            spaces[f"r{r}" if r else "ungrouped"] = wrot.rot_loss.LabelSpace(
                embeddings=self.embeddings, grouping=grouping
            )
        names = [f"label_{i}" for i in range(self.N_LABELS)]
        data = dio.Dataset(self.features, self.targets, names)
        return SimpleNamespace(wrot=wrot, spaces=spaces, data=data)

    def cycle(self, inputs, trace) -> Cycle:
        clf = inputs.wrot.classifier
        out = Cycle()
        warm_s = 0.0
        reference = Reference(repeats=3)
        for name, space in inputs.spaces.items():
            out.attempt(f"sgd_train {name}")
            started = perf_counter()
            try:
                trained = trace.call("classifier.sgd", clf.sgd_train, inputs.data, space,
                                     clf.TrainConfig(epochs=self.EPOCHS))
            except Exception as exc:
                seconds = perf_counter() - started
                out.units.append(Unit(name, seconds, self.N_SAMPLES * (self.EPOCHS - 1),
                                      reference.around(), failed=True))
                out.fail(f"sgd_train {name}", f"sgd_train {name}: {type(exc).__name__}")
                continue
            warm = trained.epoch_seconds[1:]
            warm_s += sum(warm)
            speed = reference.around()
            out.units += [Unit(name, s, self.N_SAMPLES, speed) for s in warm]
            out.report[f"{name}_epoch_ms"] = 1e3 * float(np.median(warm))
            out.ratios.append(trained.epoch_losses[-1] / trained.epoch_losses[0])
            out.fingerprint += trained.epoch_losses
            if not all(math.isfinite(v) for v in trained.epoch_losses):
                out.fail(f"sgd_train {name}", f"sgd_train {name}: non-finite epoch loss")
        done = sum(u.solves for u in out.units if not u.failed)
        out.report["train_samples_per_s"] = done / warm_s if warm_s else 0.0
        return out


WORKLOADS = {"distance": Distance, "loss": Loss, "grouped": Grouped}
