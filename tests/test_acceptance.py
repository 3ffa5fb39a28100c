"""Acceptance gate: nine checks, one printed PASS/FAIL line each.

Checks 1-5 exercise the full synthetic benchmark (shared session fixtures),
6-8 are property suites over randomized instances, 9 drives the CLI of the
imported rnnp package in subprocesses. Each check prints its verdict with
the measured numbers even when the assertion that follows fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import rnnp
from _reference import reference_refine
from rnnp.datagen import MixtureSpec, generate_mixture
from rnnp.episodes import CorruptionSpec, Episode, corrupt_labels, sample_episode
from rnnp.metrics import mean_ci95, paired_delta
from rnnp.nnp import classify, compute_prototypes
from rnnp.refine import RnnpConfig, _build_hybrids, classify_rnnp


def _emit(capsys, number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_1_benchmark_improvement_under_corruption(benchmark_run, capsys):
    reps = benchmark_run["reports"]
    cfg = benchmark_run["config"]
    rcfg = cfg.methods[1].rnnp
    assert (rcfg.alpha, rcfg.beta, rcfg.iterations, rcfg.clustering_mode) == \
        (0.8, 4, 3, "soft")
    clean = reps[("nnp", 0.0)].mean_accuracy
    d40, ci40, _ = paired_delta(reps[("rnnp", 0.4)], reps[("nnp", 0.4)])
    d20, ci20, _ = paired_delta(reps[("rnnp", 0.2)], reps[("nnp", 0.2)])
    d0, ci0, _ = paired_delta(reps[("rnnp", 0.0)], reps[("nnp", 0.0)])
    wall = benchmark_run["duration"]
    ok = (0.80 <= clean <= 0.90) and (d40 >= 0.02) and (d40 - ci40 > 0.0) \
        and (d20 >= -ci20) and (abs(d0) <= 0.015) and (wall < 120.0)
    _emit(capsys, 1, ok,
          f"clean nnp {clean:.4f} in [0.80, 0.90]; delta@40% {d40:.4f}+-{ci40:.4f} "
          f"(>= 0.02, CI excludes 0); delta@20% {d20:.4f}+-{ci20:.4f} (>= -ci); "
          f"|delta@0%| {abs(d0):.5f} <= 0.015; wall {wall:.1f}s < 120s single-threaded")


def test_2_accuracy_decreases_with_corruption(benchmark_run, capsys):
    reps = benchmark_run["reports"]
    parts = []
    ok = True
    for method in ("nnp", "rnnp"):
        g1, c1, _ = paired_delta(reps[(method, 0.0)], reps[(method, 0.2)])
        g2, c2, _ = paired_delta(reps[(method, 0.2)], reps[(method, 0.4)])
        ok = ok and g1 > c1 and g2 > c2
        parts.append(f"{method} gaps {g1:.4f}>{c1:.4f}, {g2:.4f}>{c2:.4f}")
    _emit(capsys, 2, ok, "0% > 20% > 40% for both methods beyond paired CI: "
          + "; ".join(parts))


def test_3_labels_get_rectified_at_heavy_corruption(benchmark_run, capsys):
    rect = benchmark_run["reports"][("rnnp", 0.4)].per_episode_rectification
    befores = [b for b, _ in rect]
    deltas = [a - b for b, a in rect]
    mean_delta, ci = mean_ci95(deltas)
    mean_after = float(np.mean([a for _, a in rect]))
    ok = all(b == 15 for b in befores) and mean_delta > 0.0 and mean_delta - ci > 0.0
    _emit(capsys, 3, ok,
          f"correct_before = 15 exactly on all {len(rect)} episodes; "
          f"mean correct_after {mean_after:.3f}; paired delta "
          f"{mean_delta:.3f}+-{ci:.3f} excludes 0")


def test_4_soft_assignment_beats_hard(benchmark_run, ablation_run, capsys):
    soft = benchmark_run["reports"][("rnnp", 0.4)]
    hard = ablation_run["hard_same"]
    d, ci, _ = paired_delta(soft, hard)
    ok = d >= -ci
    _emit(capsys, 4, ok,
          f"soft {soft.mean_accuracy:.4f} vs hard {hard.mean_accuracy:.4f} "
          f"at 40%: delta {d:.4f}+-{ci:.4f} (>= 0 within CI)")


def test_5_hybrid_source_ordering(benchmark_run, ablation_run, capsys):
    # The same >= different clause fails on this synthetic geometry: with
    # 40% of observed-class partners wrong, same-class blends bridge the
    # true and corrupting clusters, while cross-class blends spread
    # isotropically and let the clustering recover the true cores. See
    # README, Known limitations. Asserted as required rather than weakened.
    same = benchmark_run["reports"][("rnnp", 0.4)]
    diff = ablation_run["soft_different"]
    noise = ablation_run["soft_noise"]
    d_sd, ci_sd, _ = paired_delta(same, diff)
    d_sn, _, _ = paired_delta(same, noise)
    d_dn, _, _ = paired_delta(diff, noise)
    ok = d_sd >= 0.0 and d_sn > 0.01 and d_dn > 0.01
    _emit(capsys, 5, ok,
          f"same {same.mean_accuracy:.4f} vs different {diff.mean_accuracy:.4f} "
          f"(required same >= different, got delta {d_sd:.4f}+-{ci_sd:.4f}); "
          f"same-noise {d_sn:.4f} > 0.01; different-noise {d_dn:.4f} > 0.01")


def _free_energy(pool, centers):
    d = ((pool[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    lo = d.min(axis=1)
    return float(-np.sum(np.log(np.exp(-(d - lo[:, None])).sum(axis=1)) - lo))


def _sse(pool, centers):
    d = ((pool[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return float(d.min(axis=1).sum())


def _random_noisy_episode(rng, n_way, k_shot, dim):
    """Random episode whose observed labels still cover every class."""
    kn = n_way * k_shot
    feats = rng.normal(size=(kn, dim))
    true = np.repeat(np.arange(n_way), k_shot)
    observed = true.copy()
    flips = int(rng.integers(0, kn + 1))
    for idx in rng.permutation(kn)[:flips]:
        observed[idx] = int(rng.integers(n_way))
    for c in range(n_way):
        if not np.any(observed == c):
            counts = np.bincount(observed, minlength=n_way)
            donors = np.flatnonzero(counts[observed] >= 2)
            observed[int(donors[int(rng.integers(len(donors)))])] = c
    return Episode(
        n_way=n_way, k_shot=k_shot, support_features=feats,
        support_true_labels=true, support_observed_labels=observed,
        query_features=rng.normal(size=(1, dim)), query_labels=np.zeros(1, dtype=np.int64),
        seed=int(rng.integers(2 ** 31)),
    )


def test_6_clustering_objectives_never_increase(capsys):
    rng = np.random.default_rng(42)
    n_instances = 6000
    runs = 0
    violations = 0
    worst = 0.0
    for _ in range(n_instances):
        n_way = int(rng.integers(2, 6))
        k_shot = int(rng.integers(1, 11))
        dim = int(rng.integers(1, 17))
        iterations = int(rng.integers(1, 4))
        if k_shot == 1:
            source = ("different_class", "gaussian_noise")[int(rng.integers(2))]
        else:
            source = ("same_class", "different_class", "gaussian_noise")[int(rng.integers(3))]
        beta_hi = min(k_shot - 1, 4) if source == "same_class" else 4
        beta = int(rng.integers(1, beta_hi + 1))
        alpha = float(rng.uniform(0.15, 0.9))
        episode = _random_noisy_episode(rng, n_way, k_shot, dim)
        query = episode.query_features[0]
        cseed = int(rng.integers(2 ** 31))
        for mode, objective in (("soft", _free_energy), ("hard", _sse)):
            configs = [RnnpConfig(beta=beta, alpha=alpha, iterations=t,
                                  clustering_mode=mode, hybrid_source=source, seed=cseed)
                       for t in range(iterations + 1)]
            pool = np.vstack([episode.support_features,
                              _build_hybrids(episode, configs[-1])[0], query[None, :]])
            values = []
            for cfg in configs:
                centers = classify_rnnp(episode, query, cfg)[2].refined_prototypes
                values.append(objective(pool, centers))
            runs += 1
            for prev, nxt in zip(values, values[1:]):
                slack = 1e-9 * max(1.0, abs(prev))
                if nxt > prev + slack:
                    violations += 1
                    worst = max(worst, nxt - prev)
    ok = violations == 0 and runs >= 10_000
    _emit(capsys, 6, ok,
          f"{runs} randomized trajectories ({n_instances} instances x soft/hard, "
          f"dims 1-16, N 2-5, K 1-10): {violations} objective increases beyond "
          f"1e-9 relative (worst {worst:.2e})")


def test_7_matches_independent_loop_reference(capsys):
    rng = np.random.default_rng(42)
    n_instances = 1000
    max_coord = 0.0
    pred_mismatches = 0
    for i in range(n_instances):
        n_way = int(rng.integers(2, 5))
        k_shot = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 9))
        iterations = int(rng.integers(0, 4))
        mode = ("soft", "hard")[i % 2]
        if k_shot >= 2 and i % 3 != 0:
            source = "same_class"
            beta = int(rng.integers(1, min(k_shot - 1, 3) + 1))
        else:
            source = "different_class"
            beta = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0.2, 0.9))
        cseed = int(rng.integers(2 ** 31))
        episode = _random_noisy_episode(rng, n_way, k_shot, dim)
        query = episode.query_features[0]
        cfg = RnnpConfig(beta=beta, alpha=alpha, iterations=iterations,
                         clustering_mode=mode, hybrid_source=source, seed=cseed)
        _, pred, trace = classify_rnnp(episode, query, cfg)
        ref = reference_refine(
            episode.support_features.tolist(),
            episode.support_observed_labels.tolist(),
            n_way, query.tolist(),
            alpha=alpha, beta=beta, iterations=iterations, mode=mode,
            hybrid_source=source, config_seed=cseed, episode_seed=episode.seed,
        )
        coord = float(np.max(np.abs(
            trace.refined_prototypes - np.asarray(ref["refined_centers"]))))
        max_coord = max(max_coord, coord)
        if pred != ref["predicted_class"]:
            pred_mismatches += 1
    ok = max_coord <= 1e-9 and pred_mismatches == 0
    _emit(capsys, 7, ok,
          f"{n_instances} random small instances vs the straightforward-loop "
          f"reference: max refined-coordinate difference {max_coord:.2e} <= 1e-9, "
          f"{pred_mismatches} prediction mismatches")


def test_8_noop_and_invariance_suite(capsys):
    rng = np.random.default_rng(42)
    pool = generate_mixture(MixtureSpec(num_classes=8, dim=8, separation=5.0,
                                        samples_per_class=30, seed=4))
    fails = []

    def check(cond, name):
        if not cond:
            fails.append(name)

    # zero iterations reproduce the baseline bit for bit
    cfg0 = RnnpConfig(beta=4, iterations=0)
    for i in range(40):
        ep = corrupt_labels(sample_episode(pool, 5, 5, 3, 100 + i),
                            CorruptionSpec(rate=0.4, seed=500 + i))
        protos = compute_prototypes(ep, "observed")
        for q in ep.query_features[:2]:
            probs_r, pred_r, trace = classify_rnnp(ep, q, cfg0)
            probs_b, pred_b = classify(protos, q)
            check(np.array_equal(probs_r, probs_b), "zero-iter probs bitwise")
            check(pred_r == pred_b, "zero-iter prediction")
            check(np.array_equal(trace.refined_prototypes,
                                 trace.initial_prototypes),
                  "zero-iter centers untouched")

    # translating every feature by the same vector keeps all predictions
    variants = (
        ("nnp", None),
        ("rnnp", RnnpConfig(beta=4)),
        ("rnnp", RnnpConfig(beta=3, clustering_mode="hard", hybrid_source="different_class")),
        ("rnnp", RnnpConfig(beta=2, hybrid_source="gaussian_noise")),
    )
    for i in range(25):
        ep = corrupt_labels(sample_episode(pool, 5, 5, 2, 200 + i),
                            CorruptionSpec(rate=0.4, seed=700 + i))
        shift = rng.normal(scale=3.0, size=ep.dim)
        moved = Episode(
            n_way=ep.n_way, k_shot=ep.k_shot,
            support_features=ep.support_features + shift,
            support_true_labels=ep.support_true_labels,
            support_observed_labels=ep.support_observed_labels,
            query_features=ep.query_features + shift,
            query_labels=ep.query_labels, seed=ep.seed,
        )
        for kind, rcfg in variants:
            for j in range(2):
                if kind == "nnp":
                    pred_a = classify(compute_prototypes(ep), ep.query_features[j])[1]
                    pred_b = classify(compute_prototypes(moved), moved.query_features[j])[1]
                else:
                    pred_a = classify_rnnp(ep, ep.query_features[j], rcfg)[1]
                    pred_b = classify_rnnp(moved, moved.query_features[j], rcfg)[1]
                check(pred_a == pred_b, f"translation invariance ({kind})")

    # relabeling the classes by a permutation permutes all predictions
    for i in range(25):
        ep = corrupt_labels(sample_episode(pool, 5, 5, 2, 300 + i),
                            CorruptionSpec(rate=0.4, seed=900 + i))
        perm = rng.permutation(ep.n_way)
        relabeled = Episode(
            n_way=ep.n_way, k_shot=ep.k_shot,
            support_features=ep.support_features,
            support_true_labels=perm[ep.support_true_labels],
            support_observed_labels=perm[ep.support_observed_labels],
            query_features=ep.query_features,
            query_labels=perm[ep.query_labels], seed=ep.seed,
        )
        for kind, rcfg in variants:
            for j in range(2):
                if kind == "nnp":
                    pred_a = classify(compute_prototypes(ep), ep.query_features[j])[1]
                    pred_b = classify(compute_prototypes(relabeled), ep.query_features[j])[1]
                else:
                    pred_a = classify_rnnp(ep, ep.query_features[j], rcfg)[1]
                    pred_b = classify_rnnp(relabeled, ep.query_features[j], rcfg)[1]
                check(int(perm[pred_a]) == pred_b, f"class-permutation equivariance ({kind})")

    # responsibility rows are a distribution
    for i in range(20):
        ep = corrupt_labels(sample_episode(pool, 5, 5, 2, 400 + i),
                            CorruptionSpec(rate=0.4, seed=1100 + i))
        for rcfg in (RnnpConfig(beta=4), RnnpConfig(beta=4, clustering_mode="hard")):
            trace = classify_rnnp(ep, ep.query_features[0], rcfg)[2]
            resp = trace.support_responsibilities
            check(float(np.max(np.abs(resp.sum(axis=1) - 1.0))) <= 1e-9,
                  "responsibility rows sum to 1")
            check(float(resp.min()) >= 0.0, "responsibilities non-negative")

    # hybrids split the parent segment exactly alpha : (1 - alpha)
    alpha = 0.8
    for i in range(20):
        ep = sample_episode(pool, 5, 5, 2, 600 + i)  # clean: full same-class pairing
        hybrids = _build_hybrids(ep, RnnpConfig(beta=4, alpha=alpha))[0]
        obs = ep.support_observed_labels
        for s in range(25):
            partners = np.flatnonzero(obs == obs[s])
            partners = partners[partners != s]
            for b, j in enumerate(partners):
                h = hybrids[s * 4 + b]
                z_s, z_j = ep.support_features[s], ep.support_features[j]
                seg = float(np.linalg.norm(z_j - z_s))
                check(np.isclose(float(np.linalg.norm(h - z_s)), (1 - alpha) * seg,
                                 rtol=1e-12, atol=0.0), "hybrid distance to primary parent")
                check(np.isclose(float(np.linalg.norm(h - z_j)), alpha * seg,
                                 rtol=1e-12, atol=0.0), "hybrid distance to partner")

    # corruption touches exactly rate*K supports in every class
    for k_shot, rate in ((5, 0.2), (5, 0.4), (10, 0.3)):
        m = round(rate * k_shot)
        for i in range(15):
            ep = sample_episode(pool, 5, k_shot, 2, 800 + i)
            corr = corrupt_labels(ep, CorruptionSpec(rate=rate, seed=1300 + i))
            wrong = corr.support_observed_labels != corr.support_true_labels
            for c in range(5):
                check(int(np.sum(wrong[corr.support_true_labels == c])) == m,
                      "per-class corruption count")
            check(int(np.sum(wrong)) == m * 5, "total corruption count")

    ok = not fails
    detail = ("zero-iteration bitwise identity, translation invariance, "
              "class-permutation equivariance, responsibility rows, hybrid "
              "geometry (rtol 1e-12), and exact corruption counts all hold"
              if ok else "failed: " + ", ".join(sorted(set(fails))))
    _emit(capsys, 8, ok, detail)


def _cli(args, cwd):
    # Run the CLI from the same rnnp this process imported, whatever the
    # working directory: a relative PYTHONPATH entry such as "src" would
    # not resolve from the tmp directory the outputs are written under.
    env = os.environ.copy()
    package_root = str(Path(rnnp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "rnnp.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    return proc


def test_9_cli_outputs_are_byte_deterministic(tmp_path_factory, capsys):
    base = tmp_path_factory.mktemp("cli_determinism")
    config = {
        "mixture": {"num_classes": 6, "dim": 4, "separation": 6.0,
                    "samples_per_class": 10, "seed": 3},
        "n_way": 3, "k_shot": 5, "queries_per_class": 4, "n_episodes": 8,
        "corruption_rates": [0.0, 0.4],
        "methods": [{"method": "nnp"}, {"method": "rnnp", "beta": 2, "iterations": 2}],
        "seed": 5,
    }
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    fails = []

    def run(args):
        proc = _cli(args, base)
        if proc.returncode != 0:
            fails.append(f"exit {proc.returncode} for {' '.join(args)}: {proc.stderr.strip()}")

    def same_bytes(a, b, name):
        missing = [f"{d}/{name} missing" for d in (a, b) if not (base / d / name).is_file()]
        if missing:
            fails.extend(missing)
        elif (base / a / name).read_bytes() != (base / b / name).read_bytes():
            fails.append(f"{name} differs between {a} and {b}")

    run(["generate", "--classes", "4", "--dim", "3", "--samples", "6",
         "--seed", "2", "--out", "gen_a"])
    run(["generate", "--classes", "4", "--dim", "3", "--samples", "6",
         "--seed", "2", "--out", "gen_b"])
    same_bytes("gen_a", "gen_b", "embeddings.csv")

    eval_args = ["eval", "--config", str(cfg_path)]
    run(eval_args + ["--workers", "1", "--out", "eval_a"])
    run(eval_args + ["--workers", "1", "--out", "eval_b"])
    run(eval_args + ["--workers", "2", "--out", "eval_c"])
    for name in ("report.json", "report.csv"):
        same_bytes("eval_a", "eval_b", name)
        same_bytes("eval_a", "eval_c", name)

    sweep_args = ["sweep", "--config", str(cfg_path), "--corruption", "0.4",
                  "--axis", "alpha", "--values", "0.6,0.8", "--workers", "1"]
    run(sweep_args + ["--out", "sweep_a"])
    run(sweep_args + ["--out", "sweep_b"])
    same_bytes("sweep_a", "sweep_b", "sweep_alpha.csv")

    rect_args = ["rectify", "--config", str(cfg_path), "--corruption", "0.4",
                 "--workers", "1"]
    run(rect_args + ["--out", "rect_a"])
    run(rect_args + ["--out", "rect_b"])
    same_bytes("rect_a", "rect_b", "rectification.csv")

    ok = not fails
    detail = ("generate/eval/sweep/rectify reruns byte-identical, eval also "
              "identical across --workers 1 vs 2" if ok else "; ".join(fails))
    _emit(capsys, 9, ok, detail)
