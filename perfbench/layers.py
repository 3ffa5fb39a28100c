"""Outside-in spans at the boundary between rnnp.harness and the other rnnp modules.

The tracer replaces, in the harness module's namespace, every function
that harness imports from another rnnp module (and the classmethods of
every class it imports from one) with a wrapper that records a span.
Each span is filed under the module that defines the function, so a
renamed or replaced kernel still rolls up to its layer. Calls that a
module makes to itself are not wrapped, so spans never nest and a
layer's time is the plain sum of its spans. The process pool harness
runs episodes in is timed as the span "harness.pool".

Spans are kept in memory, one list per run_experiment call. Spans
recorded inside worker processes stay in those processes and are lost.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from time import perf_counter

# Which per-layer metric each wrapped function feeds. A function not named
# here goes to its module's default bucket, so a later rename of a kernel
# (say _refine_arrays) still lands in refine.cluster_*.
BUCKETS = {
    "datagen": ({}, "load"),
    "episodes": ({"sample_episode": "sample", "corrupt_labels": "corrupt"}, "other"),
    "nnp": ({"compute_prototypes": "prototypes"}, "classify"),
    "refine": ({"build_hybrids": "hybrids", "_direct_prototypes": "direct"}, "cluster"),
    "metrics": ({"EvalReport.from_accuracies": "aggregate"}, "score"),
    "harness": ({}, "pool"),
}


def _pool_rows(args, result):
    return int(result.features.shape[0])


def _hybrid_rows(args, result):
    return int(result[0].shape[0])


def _direct_rows(args, result):
    episode, config = args[:2]
    return int(episode.support_features.shape[0] * config.beta)


def _cluster_shape(args, result):
    pool, centers, config = args[:3]
    m, d = pool.shape
    return int(m), int(centers.shape[0]), int(d), int(config.iterations)


# Work sizes read off a call's arguments or result, keyed by function name.
SIZES = {
    "generate_mixture": _pool_rows,
    "load_embeddings": _pool_rows,
    "build_hybrids": _hybrid_rows,
    "_direct_prototypes": _direct_rows,
    "_refine_arrays": _cluster_shape,
}


def cluster_work(m, n, d, rounds):
    """(flop, bytes) of one clustering run, computed from its shapes.

    Squared-Euclidean soft k-means over an (m, d) pool and n centres:
    the pool norms once (2md); per round the distance GEMM and the centre
    update GEMM (2mnd each) plus about 8 flop per pool-centre pair for
    the distance assembly and softmax, and 2nd for the centre norms and
    division. Bytes count float64 traffic per round: the pool read by
    both GEMMs, centres read and written, and the distance and
    responsibility matrices each written and read once. These are
    computed counts, not hardware counters.
    """
    rounds_or_one = max(rounds, 1)
    flop = 2 * m * d + rounds_or_one * (4 * m * n * d + 8 * m * n + 2 * n * d)
    nbytes = 8 * (m * d + rounds_or_one * (2 * m * d + 2 * n * d + 4 * m * n))
    return flop, nbytes


class Tracer:
    """Installs span wrappers on a harness module and collects their spans."""

    def __init__(self, harness):
        self.harness = harness
        self.spans = []  # (layer, name, start, end, size)
        self._restore = []

    def _wrap(self, func, layer, name):
        spans = self.spans
        size = SIZES.get(func.__name__)

        def traced(*args, **kwargs):
            t0 = perf_counter()
            result = func(*args, **kwargs)
            t1 = perf_counter()
            spans.append((layer, name, t0, t1, size(args, result) if size else None))
            return result

        return traced

    def install(self):
        h = self.harness
        for attr, obj in list(vars(h).items()):
            module = getattr(obj, "__module__", None) or ""
            if not module.startswith("rnnp.") or module == h.__name__:
                continue
            layer = module.split(".", 1)[1]
            if inspect.isfunction(obj):
                self._restore.append((h, attr, obj))
                setattr(h, attr, self._wrap(obj, layer, obj.__name__))
            elif inspect.isclass(obj):
                for name, raw in list(vars(obj).items()):
                    if isinstance(raw, classmethod):
                        self._restore.append((obj, name, raw))
                        wrapped = self._wrap(raw.__func__, layer, f"{obj.__name__}.{name}")
                        setattr(obj, name, classmethod(wrapped))

        spans = self.spans
        base = h.ProcessPoolExecutor

        class TimedPool(base):
            def __enter__(self):
                self._span_start = perf_counter()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    spans.append(("harness", "pool", self._span_start, perf_counter(), None))

        self._restore.append((h, "ProcessPoolExecutor", base))
        h.ProcessPoolExecutor = TimedPool
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def take(self):
        """Spans recorded since the last take, in start order."""
        out = sorted(self.spans, key=lambda s: s[2])
        self.spans.clear()
        return out


def layer_metrics(spans, run_s, scale=1.0):
    """Per-layer totals of one run_experiment call from its spans.

    Every duration is multiplied by `scale`. harness.self_s is run_s
    minus every span, which is exact because spans do not nest. Returns
    the metrics and a per-function breakdown.
    """
    spans = [(layer, name, t0 * scale, t1 * scale, size) for layer, name, t0, t1, size in spans]
    run_s *= scale
    time_s = defaultdict(float)
    calls = defaultdict(int)
    rows = defaultdict(int)
    flop = nbytes = 0
    functions = defaultdict(lambda: [0.0, 0])
    for layer, name, t0, t1, size in spans:
        named, default = BUCKETS.get(layer, ({}, "other"))
        key = f"{layer}.{named.get(name, default)}"
        time_s[key] += t1 - t0
        calls[key] += 1
        time_s[f"{layer}.total"] += t1 - t0
        calls[f"{layer}.total"] += 1
        functions[f"{layer}.{name}"][0] += t1 - t0
        functions[f"{layer}.{name}"][1] += 1
        if isinstance(size, tuple):
            rows[key] += size[0]
            f, b = cluster_work(*size)
            flop += f
            nbytes += b
        elif size is not None:
            rows[key] += size

    spanned = sum(t1 - t0 for _, _, t0, t1, _ in spans)
    cluster_s = time_s["refine.cluster"]
    load_s = time_s["datagen.load"]
    metrics = {
        "datagen.load_s": load_s,
        "datagen.rows_per_s": rows["datagen.load"] / load_s if load_s > 0 else 0.0,
        "episodes.sample_s": time_s["episodes.sample"],
        "episodes.corrupt_s": time_s["episodes.corrupt"],
        "episodes.calls": calls["episodes.total"],
        "episodes.total_s": time_s["episodes.total"],
        "nnp.prototypes_s": time_s["nnp.prototypes"],
        "nnp.classify_s": time_s["nnp.classify"],
        "nnp.classify_calls": calls["nnp.classify"],
        "nnp.total_s": time_s["nnp.total"],
        "refine.hybrids_s": time_s["refine.hybrids"],
        "refine.hybrid_rows": rows["refine.hybrids"] + rows["refine.direct"],
        "refine.cluster_s": cluster_s,
        "refine.cluster_calls": calls["refine.cluster"],
        "refine.cluster_rows": rows["refine.cluster"],
        "refine.direct_s": time_s["refine.direct"],
        "refine.flop_computed": flop,
        "refine.bytes_computed": nbytes,
        "refine.gflops": flop / cluster_s / 1e9 if cluster_s > 0 else 0.0,
        "refine.total_s": time_s["refine.total"],
        "metrics.aggregate_s": time_s["metrics.aggregate"],
        "metrics.total_s": time_s["metrics.total"],
        "harness.run_s": run_s,
        "harness.self_s": run_s - spanned,
    }
    if calls["harness.pool"]:
        metrics["harness.pool_s"] = time_s["harness.pool"]
    breakdown = {k: {"s": v[0], "calls": v[1]} for k, v in sorted(functions.items())}
    return metrics, breakdown
