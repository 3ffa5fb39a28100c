"""Walk through a single corrupted few-shot episode, step by step.

Builds a small Gaussian mixture, samples one 5-way 5-shot episode,
flips 40% of the support labels in every class, and then compares the
plain nearest-prototype baseline against the hybrid-refinement
classifier on the same queries. Along the way it prints the pieces the
method is made of: the corrupted support table, the hybrid pool, the
responsibilities a corrupted support ends up with, and the rectified
labels.

Run with: python3 demos/episode_walkthrough.py
"""

import numpy as np

from rnnp import (
    CorruptionSpec,
    MixtureSpec,
    RnnpConfig,
    classify,
    classify_rnnp,
    compute_prototypes,
    corrupt_labels,
    episode_accuracy,
    generate_mixture,
    rectification_delta,
    sample_episode,
)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    # ------------------------------------------------------------------
    # Data: 8 well-separated Gaussian classes in 16 dimensions
    # ------------------------------------------------------------------
    pool = generate_mixture(MixtureSpec(
        num_classes=8, dim=16, separation=5.0, samples_per_class=50, seed=11))
    episode = sample_episode(pool, n_way=5, k_shot=5, queries_per_class=3, seed=7)
    episode = corrupt_labels(episode, CorruptionSpec(rate=0.4, seed=123))

    banner("Support set after 40% label corruption")
    wrong = int(np.sum(episode.support_observed_labels != episode.support_true_labels))
    print(f"{wrong} of {episode.n_way * episode.k_shot} "
          "support labels are wrong (2 per class):")
    print("  idx  true  observed")
    for i in range(episode.n_way * episode.k_shot):
        t = episode.support_true_labels[i]
        o = episode.support_observed_labels[i]
        mark = "  <- flipped" if t != o else ""
        print(f"  {i:3d}  {t:4d}  {o:8d}{mark}")

    # ------------------------------------------------------------------
    # Baseline: mean prototypes over the observed (noisy) labels
    # ------------------------------------------------------------------
    banner("Nearest-prototype baseline on the noisy labels")
    protos = compute_prototypes(episode)
    base_preds = [classify(protos, q)[1] for q in episode.query_features]
    base_acc = episode_accuracy(base_preds, episode.query_labels)
    print(f"predictions: {base_preds}")
    print(f"true labels: {episode.query_labels.tolist()}")
    print(f"accuracy: {base_acc:.3f}")

    # ------------------------------------------------------------------
    # Robust classifier: hybrids + per-query soft clustering
    # ------------------------------------------------------------------
    cfg = RnnpConfig(alpha=0.8, beta=4, iterations=3)
    banner("Hybrid pool")
    print(f"each support blends with beta={cfg.beta} same-class partners at "
          f"alpha={cfg.alpha}, giving {cfg.beta * episode.n_way * episode.k_shot} "
          f"unlabeled hybrids of dimension {episode.dim}")

    banner("One query under the hood")
    q = episode.query_features[0]
    probs, pred, trace = classify_rnnp(episode, q, cfg)
    flipped = np.flatnonzero(
        episode.support_true_labels != episode.support_observed_labels)
    s = int(flipped[0])
    resp = trace.support_responsibilities[s]
    print(f"support {s} observes class {episode.support_observed_labels[s]} "
          f"but truly belongs to class {episode.support_true_labels[s]}")
    print("its responsibilities after refinement: "
          + np.array2string(resp, precision=3, suppress_small=True))
    print(f"rectified label: {trace.rectified_labels[s]} "
          f"(argmax pulls it back toward the true cluster)")
    print(f"query prediction {pred}, true {episode.query_labels[0]}, "
          "class probabilities "
          + np.array2string(probs, precision=3, suppress_small=True))

    before, after = rectification_delta(episode, trace)
    print(f"correct support labels: {before} before refinement, {after} after")

    banner("Full episode comparison")
    # One stacked call: every query is still its own refinement problem.
    rnnp_preds = classify_rnnp(episode, episode.query_features, cfg)[1]
    rnnp_acc = episode_accuracy(rnnp_preds, episode.query_labels)
    print(f"baseline accuracy: {base_acc:.3f}")
    print(f"refined accuracy:  {rnnp_acc:.3f}")


if __name__ == "__main__":
    main()
