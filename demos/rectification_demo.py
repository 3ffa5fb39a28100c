"""How many corrupted support labels does refinement recover?

At 40% corruption every 5-way 5-shot episode starts with exactly 15 of
25 support labels correct. Refinement re-labels each support by the
cluster its responsibilities favor, so the interesting quantity is the
per-episode count of correct labels afterwards (averaged over that
episode's queries). This demo prints the distribution as a text
histogram.

Run with: python3 demos/rectification_demo.py [--episodes N]
"""

import argparse

import numpy as np

from rnnp import MethodSpec, RnnpConfig, default_config, run_experiment


def main():
    parser = argparse.ArgumentParser(description="Label rectification distribution")
    parser.add_argument("--episodes", type=int, default=300,
                        help="number of episodes (default 300)")
    parser.add_argument("--corruption", type=float, default=0.4,
                        help="corruption rate (default 0.4)")
    args = parser.parse_args()

    config = default_config(
        methods=(MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=4)),),
        corruption_rates=(args.corruption,), n_episodes=args.episodes, workers=1)
    report = run_experiment(config)[0]
    pairs = report.per_episode_rectification  # (correct before, correct after) per episode

    total = config.n_way * config.k_shot
    rect = report.rectification
    before, after = rect["mean_correct_before"], rect["mean_correct_after"]
    print(f"{args.episodes} episodes at {args.corruption:.0%} corruption, "
          f"{total} supports each")
    print(f"mean correct labels: {before:.2f} before refinement, {after:.2f} after "
          f"({after - before:+.2f})")

    # distribution of the per-episode after-counts, rounded to integers
    after_counts = np.rint([a for _, a in pairs]).astype(int)
    lo, hi = int(after_counts.min()), int(after_counts.max())
    print("\ncorrect-after histogram (episode counts):")
    for k in range(lo, hi + 1):
        n = int(np.sum(after_counts == k))
        bar = "#" * max(1, round(60 * n / args.episodes)) if n else ""
        print(f"  {k:3d} | {bar} {n}")

    worse = sum(1 for b, a in pairs if a < b)
    better = sum(1 for b, a in pairs if a > b)
    print(f"\nepisodes improved: {better}, unchanged: "
          f"{args.episodes - better - worse}, made worse: {worse}")


if __name__ == "__main__":
    main()
