"""Command-line front end.

Subcommands:

* ``distance``: robust transport distance between two feature files,
  optionally with a random feature grouping. Every family, w22 (the
  identity metric, the plain entropic W2^2) too, runs the Frank-Wolfe loop
  and reports its measured gap and iterations.
* ``contour``: loss values over the prediction simplex for three labels,
  written as an ``x,y,loss`` CSV (losses normalized so the maximum is 1).
  The target is one-hot, whose one plan needs no Frank-Wolfe step or
  Sinkhorn oracle, so the command takes neither's settings.
* ``train``: fit the softmax classifier with a transport loss and write a
  checkpoint.
* ``eval``: AUC / mean average precision of a checkpoint on a dataset.

Exit codes: 0 success, 1 bad input or I/O failure, 2 solver non-convergence,
3 training divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .classifier import (
    TrainConfig,
    TrainingDivergedError,
    evaluate,
    load_model,
    save_model,
    sgd_train,
)
from .data_io import _load_features, load_dataset, load_embedding_file, make_grouping
from .frank_wolfe import FWConfig, rot_distance
from .measures import make_measure
from .metric_solvers import DSConfig, KLConfig, PNormConfig
from .rot_loss import _LAMBDA_GAMMA, _LOSS_CONFIG, LabelSpace, rot_loss
from .sinkhorn import SinkhornConfig, SinkhornConvergenceError

__all__ = ["main"]

_FAMILIES = ("pnorm", "kl", "ds", "w22")


def _metric(args):
    """The adversary config the family flags name; ``None``, for w22, is the identity."""
    if args.family == "pnorm":
        return PNormConfig(k=args.k)
    if args.family == "kl":
        return KLConfig(lambda_m=args.lambda_m)
    if args.family == "ds":
        return DSConfig(lambda_m=args.lambda_m)
    return None


def cmd_distance(args) -> int:
    src = make_measure(_load_features(args.src))
    tgt = make_measure(_load_features(args.tgt))
    grouping = None if args.r is None else make_grouping(src.dim, args.r, args.seed)
    sinkhorn = SinkhornConfig(lambda_beta=args.lambda_beta)
    config = FWConfig(_metric(args), sinkhorn, max_iter=args.fw_iters, gap_tol=args.gap_tol)
    solved = rot_distance(src, tgt, config, grouping)
    result = {
        "value": solved.value,
        "gap": solved.gap_history[-1],
        "iterations": solved.iterations_used,
        "family": args.family,
    }
    if not solved.converged:
        print(
            f"warning: duality gap {result['gap']:.3e} above tolerance "
            f"{args.gap_tol:.3e} after {solved.iterations_used} iterations "
            "(measured at the iterate before the last step)",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(result))
    else:
        print(f"family     {result['family']}")
        print(f"value      {result['value']:.10g}")
        print(f"gap        {result['gap']:.3e}")
        print(f"iterations {result['iterations']}")
    return 0 if solved.converged else 2


def cmd_contour(args) -> int:
    label_names = [s for s in args.labels.split(",") if s]
    if len(label_names) != 3:
        raise ValueError("--labels must name exactly 3 labels (comma-separated)")
    if args.grid_n < 2:
        # a grid needs both ends of [0, 1] to reach the simplex's corners
        raise ValueError(f"--grid-n must be at least 2, got {args.grid_n}")
    names, matrix = load_embedding_file(args.embeddings)
    index = {n: i for i, n in enumerate(names)}
    missing = [n for n in label_names if n not in index]
    if missing:
        raise ValueError(f"labels not in embedding file: {', '.join(missing)}")
    emb = matrix[[index[n] for n in label_names]]
    labels = LabelSpace(embeddings=emb)
    # a one-hot target has one plan: no Frank-Wolfe step or oracle to set
    config = replace(_LOSS_CONFIG, metric=_metric(args))
    target = np.array([0.0, 0.0, 1.0])  # third label is the true one

    grid = np.linspace(0.0, 1.0, args.grid_n)
    points = []
    values = []
    for x in grid:
        for y in grid:
            z = 1.0 - x - y
            if z < -1e-12:
                continue  # infeasible corner of the square
            h = np.array([x, y, max(z, 0.0)])
            h = h / h.sum()
            points.append((x, y))
            loss = rot_loss(h, target, labels, config, lambda_gamma=args.lambda_gamma)
            values.append(loss.value)
    values = np.asarray(values)
    peak = values.max()
    if peak > 0:
        values = values / peak
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("x,y,loss\n")
        for (x, y), v in zip(points, values):
            fh.write(f"{x:.6f},{y:.6f},{v:.10g}\n")
    print(f"wrote {len(points)} grid losses to {args.out}")
    return 0


def cmd_train(args) -> int:
    names, matrix = load_embedding_file(args.embeddings)
    grouping = None
    if args.r is not None:
        grouping = make_grouping(matrix.shape[1], args.r, args.seed)
    labels_space = LabelSpace(embeddings=matrix, grouping=grouping)
    dataset = load_dataset(args.features, args.labels, label_names=names)
    sinkhorn = SinkhornConfig(lambda_beta=args.lambda_beta)
    config = TrainConfig(
        loss=replace(_LOSS_CONFIG, metric=_metric(args), sinkhorn=sinkhorn),
        learning_rate=args.lr,
        epochs=args.epochs,
        weight_decay=args.weight_decay,
        seed=args.seed,
    )
    result = sgd_train(dataset, labels_space, config)
    for i, (loss_val, secs) in enumerate(
        zip(result.epoch_losses, result.epoch_seconds)
    ):
        print(f"epoch {i:3d}  loss {loss_val:.6f}  time {secs:.3f}s")
    save_model(result.model, args.model_out)
    print(f"wrote model to {args.model_out}")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model_in)
    dataset = load_dataset(args.features, args.labels, num_labels=model.n_labels)
    metrics = evaluate(model, dataset)
    print(f"auc {metrics.auc:.6f}")
    print(f"map {metrics.mean_average_precision:.6f}")
    if args.metrics_json:
        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            json.dump(
                {"auc": metrics.auc, "map": metrics.mean_average_precision}, fh
            )
            fh.write("\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrot", description="Robust transport distances, losses, and training"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("--family", choices=_FAMILIES, default="pnorm",
                       help="adversary family; w22 is the identity metric (default %(default)s)")
        p.add_argument("--k", type=int, default=PNormConfig.k,
                       help="p-norm index, p = 2k/(2k-1) (default %(default)s)")
        p.add_argument("--lambda-m", type=float, default=KLConfig.lambda_m,
                       help="KL and DS penalty weight (default %(default)s)")

    p = sub.add_parser("distance", help="robust distance between two point clouds")
    p.add_argument("--src", required=True, help="source points: a CSV or .npy feature file")
    p.add_argument("--tgt", required=True, help="target points: a CSV or .npy feature file")
    add_family(p)
    p.add_argument("--lambda-beta", type=float, default=SinkhornConfig.lambda_beta,
                   help="entropic regularizer of the Sinkhorn oracle (default %(default)s)")
    p.add_argument("--r", type=int, help="group count of a random feature grouping (default none)")
    p.add_argument("--seed", type=int, default=0, help="grouping seed (default %(default)s)")
    p.add_argument("--fw-iters", type=int, default=FWConfig.max_iter,
                   help="most Frank-Wolfe steps (default %(default)s)")
    p.add_argument("--gap-tol", type=float, default=FWConfig.gap_tol,
                   help="stop once the duality gap is at most this (default %(default)s)")
    p.add_argument("--json", action="store_true", help="print one JSON object (default text)")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("contour", help="loss surface over a 3-label simplex")
    p.add_argument("--labels", required=True, help="three comma-separated names, the true one last")
    p.add_argument("--embeddings", required=True, help="embedding file holding the three labels")
    add_family(p)
    p.add_argument("--lambda-gamma", type=float, default=_LAMBDA_GAMMA,
                   help="weight of the plan entropy in each loss (default %(default)s)")
    p.add_argument("--grid-n", type=int, default=101,
                   help="grid points per simplex side, at least 2 (default %(default)s)")
    p.add_argument("--out", required=True, help="CSV file to write the x,y,loss rows to")
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("train", help="train the softmax classifier")
    p.add_argument("--features", required=True, help="training features: a CSV or .npy file")
    p.add_argument("--labels", required=True, help="training labels: index<TAB>labels lines")
    p.add_argument("--embeddings", required=True, help="embedding file; its tokens are the labels")
    add_family(p)
    p.add_argument("--lambda-beta", type=float, default=SinkhornConfig.lambda_beta,
                   help="entropic regularizer of the Sinkhorn oracle (default %(default)s)")
    p.add_argument("--r", type=int, help="group count of a random label grouping (default none)")
    p.add_argument("--seed", type=int, default=TrainConfig.seed,
                   help="seed of the sample order and the grouping (default %(default)s)")
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate,
                   help="SGD learning rate (default %(default)s)")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                   help="passes over the training set (default %(default)s)")
    p.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay,
                   help="L2 weight decay (default %(default)s)")
    p.add_argument("--model-out", required=True, help="checkpoint file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--model-in", required=True, help="checkpoint file written by train")
    p.add_argument("--features", required=True, help="test features: a CSV or .npy file")
    p.add_argument("--labels", required=True, help="test labels: index<TAB>labels lines")
    p.add_argument("--metrics-json", help="JSON file to also write auc and map to (default none)")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; usage errors are
        # bad input in this tool's exit-code scheme.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SinkhornConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
