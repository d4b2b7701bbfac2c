"""Why one model per group can beat one model for everyone.

The synthetic corpus here contains two signal archetypes whose class
effect points in opposite directions: the feature shift that means
class 1 under the first archetype means class 0 under the second. A
single linear classifier sees the two regimes cancel out; per-group
classifiers trained after group formation see each regime alone.
"""

from collections import Counter

import numpy as np

from tsgroups.autoencoder import AutoencoderConfig, fit, transform
from tsgroups.classifiers import ClassifierSpec
from tsgroups.consistent import CgfConfig, form_consistent_groups
from tsgroups.group_mapping import MappingMethod, infer_with_groups
from tsgroups.grouped import predict, train_per_group, train_single_baseline
from tsgroups.ingest import SyntheticSpec, generate_synthetic, split_indices
from tsgroups.metrics import evaluate_metrics


def main() -> None:
    spec = SyntheticSpec(
        frequencies=(1.0, 3.1),
        amplitudes=(1.0, 0.7),
        noise_sigmas=(0.05, 0.05),
        class_effect_signs=(1, -1),
        class_effect_scale=0.6,
        windows_per_class=25,
        t=24, d=3, C=2,
        seed=9,
    )
    ds = generate_synthetic(spec)
    train_idx, test_idx = split_indices(ds, train_fraction=0.8, seed=9)
    train_ds, test_ds = ds.subset(train_idx), ds.subset(test_idx)
    print(f"{train_ds.n_windows} train / {test_ds.n_windows} test windows,"
          f" two archetypes with opposed class effects")

    ae_config = AutoencoderConfig(hidden1=8, hidden2=4, epochs=12, seed=9)
    params, _ = fit(train_ds, ae_config)
    train_vectors = transform(params, train_ds).vectors
    test_vectors = transform(params, test_ds).vectors

    result = form_consistent_groups(train_vectors, CgfConfig(tau=0.05))
    print(f"group formation: K={result.grouping.K} ({result.grouping.measure})")

    clf = ClassifierSpec(kind="SOFTMAX_STATS", epochs=300, seed=9)
    grouped = train_per_group(train_ds, train_vectors, result.grouping.assignment, clf)
    single = train_single_baseline(train_ds, train_vectors, clf)

    test_groups = form_consistent_groups(test_vectors, CgfConfig(tau=0.05))
    grouped_pred, report = infer_with_groups(
        grouped, train_vectors, test_ds, test_vectors, test_groups.grouping,
        method=MappingMethod.AVG, train_grouping=result.grouping)
    single_pred = predict(single, 0, test_ds.windows, test_vectors)

    m_grouped = evaluate_metrics(grouped_pred, test_ds.labels, test_ds.n_classes)
    m_single = evaluate_metrics(single_pred, test_ds.labels, test_ds.n_classes)
    print(f"\n              accuracy   macro F1")
    print(f"per-group     {m_grouped.accuracy:8.3f} {m_grouped.f1_macro:10.3f}")
    print(f"single model  {m_single.accuracy:8.3f} {m_single.f1_macro:10.3f}")
    fanin = Counter(report.chosen())
    routed = ", ".join(
        f"{fanin[g]} -> train group {g}" for g in sorted(fanin))
    print(f"\nrouting of {len(report.distances)} test groups: {routed}")


if __name__ == "__main__":
    main()
