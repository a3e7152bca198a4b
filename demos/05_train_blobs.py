"""End-to-end training on synthetic blobs, through the file formats.

Everything a real run touches: features and labels written to disk, label
embeddings loaded from a text file, SGD training with the transport loss at
package defaults, evaluation on held-out data, and a checkpoint round trip.
"""

import tempfile
from pathlib import Path

import numpy as np

from wrot import (
    LabelSpace,
    TrainConfig,
    evaluate,
    load_dataset,
    load_embeddings,
    load_model,
    save_features,
    save_labels,
    save_model,
    sgd_train,
)

rng = np.random.default_rng(7)
n_features = 10
names = ["crimson", "teal", "ochre"]

# class means 3 sigma apart, unit noise
means = np.zeros((3, n_features))
means[0, 0] = means[1, 1] = means[2, 2] = 3.0 / np.sqrt(2.0)


def sample(n_per):
    feats, labs = [], []
    for c in range(3):
        feats.append(means[c] + rng.normal(size=(n_per, n_features)))
        labs.append(np.full(n_per, c))
    return np.vstack(feats), np.concatenate(labs)


with tempfile.TemporaryDirectory(prefix="wrot_demo_") as tmp:
    work = Path(tmp)
    x_train, y_train = sample(100)
    x_test, y_test = sample(100)

    # .npy feature file, tab-separated label lists, text embeddings
    save_features(work / "train.feat", x_train)
    save_labels(work / "train.labels", np.eye(3, dtype=int)[y_train])
    save_features(work / "test.feat", x_test)
    save_labels(work / "test.labels", np.eye(3, dtype=int)[y_test])
    with open(work / "embeddings.txt", "w", encoding="utf-8") as fh:
        fh.write("3 3\ncrimson 1 0 0\nteal 0 1 0\nochre 0 0 1\n")

    train = load_dataset(work / "train.feat", work / "train.labels", label_names=names)
    test = load_dataset(work / "test.feat", work / "test.labels", label_names=names)
    labels = LabelSpace(embeddings=load_embeddings(work / "embeddings.txt", names))

    result = sgd_train(train, labels, TrainConfig(epochs=20))
    for epoch in (0, 4, 9, 19):
        print(f"epoch {epoch:2d}: mean loss {result.epoch_losses[epoch]:.4f}")

    metrics = evaluate(result.model, test)
    print(f"held-out AUC {metrics.auc:.4f}, mAP {metrics.mean_average_precision:.4f}")

    save_model(result.model, work / "model.ckpt")
    reloaded = load_model(work / "model.ckpt")
    again = evaluate(reloaded, test)
    assert again.auc == metrics.auc
    print(f"checkpoint round trip OK ({work / 'model.ckpt'})")
