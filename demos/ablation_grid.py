"""Ablate the refinement ingredients at heavy label corruption.

Two questions, answered on paired episode streams at 40% corruption:

  1. Which hybrid source helps, and does soft assignment beat hard?
  2. How does accuracy move along a beta sweep?

Worth knowing before reading the numbers: on this isotropic synthetic
mixture the cross-class blends come out ahead of same-class blends.
With 40% of the observed classmates mislabeled, same-class hybrids
often interpolate straight toward the corrupting cluster, while
cross-class hybrids spread between far-apart classes and leave the
cluster cores alone. Both still clearly beat unstructured noise
hybrids, which is the part that generalizes.

Run with: python3 demos/ablation_grid.py [--episodes N]
"""

import argparse

from rnnp import (
    MethodSpec,
    RnnpConfig,
    default_config,
    paired_delta,
    run_experiment,
    run_sweep,
)

RATE = 0.4


def variant(label, **kwargs):
    return MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=4, **kwargs), label=label)


def main():
    parser = argparse.ArgumentParser(description="Ablation grid at 40% corruption")
    parser.add_argument("--episodes", type=int, default=200,
                        help="episodes per variant (default 200)")
    args = parser.parse_args()

    methods = (
        MethodSpec(method="nnp"),
        variant("soft_same"),
        variant("hard_same", clustering_mode="hard"),
        variant("soft_different", hybrid_source="different_class"),
        variant("soft_noise", hybrid_source="gaussian_noise"),
    )
    config = default_config(methods=methods, corruption_rates=(RATE,),
                            n_episodes=args.episodes, workers=1)
    reports = {r.method: r for r in run_experiment(config)}

    print(f"accuracy at {RATE:.0%} corruption, {args.episodes} paired episodes")
    print()
    baseline = reports["nnp"]
    for label in ("nnp", "soft_same", "hard_same", "soft_different", "soft_noise"):
        r = reports[label]
        if label == "nnp":
            extra = "(baseline)"
        else:
            d, ci, _ = paired_delta(r, baseline)
            extra = f"vs baseline {d:+.4f} +/- {ci:.4f}"
        print(f"  {label:15s} {r.mean_accuracy:.4f} +/- {r.ci95:.4f}  {extra}")

    d, ci, _ = paired_delta(reports["soft_same"], reports["hard_same"])
    print(f"\nsoft vs hard assignment (same-class hybrids): {d:+.4f} +/- {ci:.4f}")

    # ------------------------------------------------------------------
    # beta sweep: how many partners should each support blend with
    # ------------------------------------------------------------------
    sweep_cfg = default_config(methods=(variant("rnnp"),), corruption_rates=(RATE,),
                               n_episodes=args.episodes, workers=1)
    print("\nbeta sweep (same-class hybrids, soft assignment):")
    for r in run_sweep(sweep_cfg, "beta", [1, 2, 3, 4]):
        print(f"  beta={r.method}: {r.mean_accuracy:.4f} +/- {r.ci95:.4f}")


if __name__ == "__main__":
    main()
