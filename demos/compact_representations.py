"""Squeeze 72-number windows into 4 numbers without losing their regime.

Windows come from two signal archetypes, each recorded under two class
conditions: four distinct cells in total. A small recurrent autoencoder
compresses every window to the final state of its second encoder layer.
Clustering those 4-wide codes recovers the planted cells exactly, which
is the property the rest of the workflow builds on.
"""

import argparse

import numpy as np

from tsgroups.autoencoder import AutoencoderConfig, fit, transform
from tsgroups.hierarchy import select_best_measure
from tsgroups.ingest import SyntheticSpec, generate_synthetic


def adjusted_rand(a: np.ndarray, b: np.ndarray) -> float:
    """Chance-corrected agreement between two partitions."""
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    table = np.zeros((ua.size, ub.size))
    for x, y in zip(ia, ib):
        table[x, y] += 1

    def comb2(n):
        return n * (n - 1) / 2.0

    cells = comb2(table).sum()
    rows = comb2(table.sum(axis=1)).sum()
    cols = comb2(table.sum(axis=0)).sum()
    expected = rows * cols / comb2(len(a))
    peak = (rows + cols) / 2.0
    return 1.0 if peak == expected else float((cells - expected) / (peak - expected))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = SyntheticSpec(
        frequencies=(1.0, 3.1), amplitudes=(1.0, 0.7),
        noise_sigmas=(0.05, 0.05), class_effect_signs=(1, 1),
        class_effect_scale=0.6, windows_per_class=12,
        t=24, d=3, C=2, seed=args.seed,
    )
    ds, archetypes = generate_synthetic(spec)
    cell = archetypes * ds.n_classes + ds.labels
    flat_width = ds.n_timesteps * ds.n_channels
    print(f"{ds.n_windows} windows, {flat_width} numbers each,"
          f" four planted (archetype, class) cells")

    config = AutoencoderConfig(hidden1=8, hidden2=4, epochs=args.epochs, seed=args.seed)
    params, report = fit(ds, config)
    vectors = transform(params, ds).vectors
    print(f"trained {len(report.train_losses)} epochs,"
          f" loss {report.train_losses[0]:.3f} -> {report.train_losses[-1]:.3f}")
    print(f"compressed width: {vectors.shape[1]} ({flat_width // vectors.shape[1]}x smaller)\n")

    print("mean code per planted cell:")
    for c in range(4):
        mean = vectors[cell == c].mean(axis=0)
        print(f"  archetype {c // 2}, class {c % 2}: {np.round(mean, 2)}")

    selection = select_best_measure(vectors, k=4)
    score = adjusted_rand(selection.assignment, cell)
    print(f"\nclustering the codes at k=4 ({selection.measure.value})"
          f" matches the planted cells with adjusted Rand {score:.2f}")


if __name__ == "__main__":
    main()
