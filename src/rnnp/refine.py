"""Label-noise-robust prototype refinement.

The idea: corrupted support labels drag the per-class mean prototypes
toward wrong classes. To pull them back, each support feature is blended
with partner features into a cloud of unlabeled hybrid points, and then,
separately for every query, a few rounds of soft k-means run over
supports + hybrids + that one query, starting from the plain per-class
means. The refined cluster centers replace the prototypes for
classification, and the final soft assignment of each support doubles as
a rectified label for diagnostics.

Exactly one query participates per clustering run; queries never help
classify each other. The library (refine_for_query, classify_rnnp) and
the harness share one path, _refine_queries: a batch of queries, each
its own problem, with the library calling it for a batch of one.

Supports, blend hybrids, class means and centers lie in the supports'
span, and a query adds one residual axis. Only the harness uses this:
when KN + 1 < d it projects each episode once into those KN + 1
coordinates (_span_episode), and everything after it runs there, with
flops that scale with KN instead of d; only gaussian_noise hybrids, which
leave the span, run in R^d. Distances are the same in exact arithmetic;
centers move by about 1e-14, and no prediction, rectified label or report
byte of the benchmark changes. The library refines its query in R^d.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .episodes import (_ANY_FINITE, Episode, _check_int, _check_real, _check_size, _check_type,
                       _checked, as_matrix, as_vector)
from .errors import InvalidInputError
from .nnp import _class_means, _softmin_inplace, classify, compute_prototypes

CLUSTERING_MODES = ("soft", "hard")
HYBRID_SOURCES = ("same_class", "different_class", "gaussian_noise")
HYBRID_LABELINGS = ("unlabeled_cluster", "labeled_direct")

# A cluster whose total responsibility falls below this keeps its previous
# center instead of dividing by (near) zero.
EMPTY_CLUSTER_EPS = 1e-12

# The clustering kernel's scratch arrays (see _work_array), one set per thread.
_SCRATCH = threading.local()


@dataclass(frozen=True)
class RnnpConfig:
    """Hyper-parameters of the refinement.

    beta: hybrids generated per support feature.
    alpha: blend weight of the primary parent, strictly inside (0, 1).
    iterations: soft k-means rounds per query (0 disables refinement).
    clustering_mode: "soft" (fractional responsibilities) or "hard"
        (nearest-center assignment).
    hybrid_source: "same_class" blends each support with observed
        classmates; "different_class" blends across observed classes;
        "gaussian_noise" replaces hybrids with draws from a diagonal
        Gaussian fitted to the support set.
    hybrid_labeling: "unlabeled_cluster" lets hybrids float free in the
        clustering; "labeled_direct" skips clustering and folds each
        hybrid into its parent's class mean.
    seed: drives partner subsampling and noise draws.
    """

    beta: int
    alpha: float = 0.8
    iterations: int = 3
    clustering_mode: str = "soft"
    hybrid_source: str = "same_class"
    hybrid_labeling: str = "unlabeled_cluster"
    seed: int = 0

    def __post_init__(self):
        for name, lo in (("beta", 1), ("iterations", 0), ("seed", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), lo))
        object.__setattr__(self, "alpha", _check_real("alpha", self.alpha, 0.0, 1.0, True))
        if self.clustering_mode not in CLUSTERING_MODES:
            raise InvalidInputError(f"clustering_mode must be one of {CLUSTERING_MODES}")
        if self.hybrid_source not in HYBRID_SOURCES:
            raise InvalidInputError(f"hybrid_source must be one of {HYBRID_SOURCES}")
        if self.hybrid_labeling not in HYBRID_LABELINGS:
            raise InvalidInputError(f"hybrid_labeling must be one of {HYBRID_LABELINGS}")
        if self.hybrid_source == "gaussian_noise" and self.hybrid_labeling == "labeled_direct":
            raise InvalidInputError("gaussian_noise hybrids have no parent class to label them with")


@dataclass(frozen=True)
class RefinementTrace:
    """Diagnostics from one refinement run.

    initial_prototypes and refined_prototypes are read-only (N, d) arrays,
    one row per class. support_responsibilities holds the assignment
    computed in the final clustering round (for zero iterations: the
    assignment at the initial centers), one row per support, one column per
    class. rectified_labels, derived from it, are the read-only per-row
    argmax (exact ties go to the lowest class), the class the clustering
    believes each support belongs to.
    """

    initial_prototypes: np.ndarray
    refined_prototypes: np.ndarray
    support_responsibilities: np.ndarray
    rectified_labels: np.ndarray = field(init=False)

    def __post_init__(self):
        initial, refined, resp = (as_matrix(a, _ANY_FINITE) for a in (
            self.initial_prototypes, self.refined_prototypes, self.support_responsibilities))
        if resp.shape[1] != initial.shape[0] or refined.shape != initial.shape:
            raise InvalidInputError("prototype shapes and responsibility columns must match")
        if np.max(np.abs(resp.sum(axis=1) - 1.0)) > 1e-9:
            raise InvalidInputError("responsibility rows must sum to 1 within 1e-9")
        rect = np.argmax(resp, axis=1)
        rect.setflags(write=False)
        for name, value in (("initial_prototypes", initial), ("refined_prototypes", refined),
                            ("support_responsibilities", resp), ("rectified_labels", rect)):
            object.__setattr__(self, name, value)


def _check_partners(config: RnnpConfig, k_shot: int) -> None:
    """same_class hybrids need beta distinct observed classmates, so beta <= K - 1."""
    if config.hybrid_source == "same_class" and config.beta > k_shot - 1:
        raise InvalidInputError(
            f"beta={config.beta} exceeds K-1={k_shot - 1} distinct same-class partners"
        )


def build_hybrids(episode: Episode, config: RnnpConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """Hybrid features plus, when parents exist, the parent observed labels.

    Randomized choices come from np.random.default_rng([config.seed,
    episode.seed]) and are consumed as follows. For each support s in row
    order, the candidate partners are the supports with the same
    (same_class) or a different (different_class) observed label, j != s,
    in ascending row order:

    * more candidates than beta: one rng.permutation(len(candidates)) call
      picks the first beta, in permuted order (the only rng consumption);
    * exactly beta: all candidates, ascending, no rng draw;
    * fewer than beta but at least one: candidates cycled in ascending
      order until beta partners are emitted (corruption can shrink an
      observed group this far; the hybrid count contract stays N*K*beta);
    * none: the support is paired with itself, so the hybrid equals it.

    Each partner j emits alpha * z_s + (1 - alpha) * z_j with parent label
    observed[s]. gaussian_noise instead draws all N*K*beta rows in one
    rng.normal call from the support set's per-dimension mean and
    (population) standard deviation, and has no parent labels.
    """
    _check_type("episode", episode, Episode)
    _check_type("config", config, RnnpConfig)
    _check_partners(config, episode.k_shot)
    sup = episode.support_features
    kn = sup.shape[0]
    beta = config.beta
    _check_size(f"beta={beta}", kn * beta, sup.shape[1])
    rng = np.random.default_rng([config.seed, episode.seed])

    if config.hybrid_source == "gaussian_noise":
        loc = sup.mean(axis=0)
        scale = sup.std(axis=0)
        return rng.normal(loc, scale, size=(kn * beta, sup.shape[1])), None

    obs = episode.support_observed_labels
    if config.hybrid_source == "same_class":
        mates = obs[:, None] == obs
        np.fill_diagonal(mates, False)
    else:
        mates = obs[:, None] != obs
    # A support without candidates is its own only one, so it pairs with itself.
    np.fill_diagonal(mates, ~mates.any(axis=1))
    counts = np.count_nonzero(mates, axis=1)
    # Up to beta candidates are cycled through in ascending order; from more,
    # one rng.permutation per support, in row order, picks beta.
    picks = np.arange(beta) % counts[:, None]
    for s in np.flatnonzero(counts > beta).tolist():
        picks[s] = rng.permutation(counts[s])[:beta]
    partners = np.nonzero(mates)[1][(np.cumsum(counts) - counts)[:, None] + picks]
    alpha = config.alpha
    feats = alpha * sup[:, None, :] + (1.0 - alpha) * sup[partners]
    return feats.reshape(kn * beta, -1), np.repeat(obs, beta)


def _work_array(name: str, shape: tuple) -> np.ndarray:
    """An uninitialised float64 array of the given shape: a view of the front
    of this thread's scratch buffer `name`, which is replaced only when it is
    too small. Each thread's buffers grow to its largest call and go with it.
    """
    size = math.prod(shape)
    buf = getattr(_SCRATCH, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        setattr(_SCRATCH, name, buf)
    return buf[:size].reshape(shape)


def _with_ones(x: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """[x - origin, 1]: (rows, d + 1), a point's side of the distance GEMM."""
    out = np.empty((x.shape[0], x.shape[1] + 1))
    np.subtract(x, origin, out=out[:, :-1])
    out[:, -1] = 1.0
    return out


def _assign(shared: np.ndarray, queries: np.ndarray, centers: np.ndarray,
            mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities of the shared rows (N, B, m) and of each problem's
    query (N, Q) for the centers (N, B, d), where B is Q or 1 (one center set
    that every problem starts from).

    shared (m, d + 1) and queries (Q, d + 1) end in a ones column. The
    centers are written as [-2c, |c|^2] into the (N*B, d + 1) augmented
    scratch array, so one GEMM gives |c|^2 - 2c.p for all N*B centers and m
    shared rows; each query adds one dot product per center. A point's |p|^2 is
    the same for every center, so neither the softmin nor the first minimum
    over the centers depends on it, and it is left out. Distances and then
    responsibilities are written into the (N*B, m) scratch array, and every
    reduction over the N centers runs along axis 0.
    """
    n, b, d = centers.shape
    aug = _work_array("centers_aug", (n, b, d + 1))
    np.multiply(centers, -2.0, out=aug[..., :d])
    np.einsum("nbd,nbd->nb", centers, centers, out=aug[..., d])
    dists = _work_array("dists", (n, b, shared.shape[0]))
    np.matmul(aug.reshape(n * b, d + 1), shared.T, out=dists.reshape(n * b, -1))
    query_dists = np.einsum("nqk,qk->nq", np.broadcast_to(aug, (n,) + queries.shape), queries)
    if mode == "soft":
        _softmin_inplace(dists.reshape(n, -1), axis=0)
        return dists, _softmin_inplace(query_dists, axis=0)
    _first_min_onehot(dists.reshape(n, -1))
    return dists, _first_min_onehot(query_dists)


def _first_min_onehot(x: np.ndarray) -> np.ndarray:
    """One-hot along axis 0 of x (N, ...) on the nearest center, written
    over x and returned.

    Equal bit for bit to a one-hot of np.argmin(x, axis=0): exact ties go
    to the lowest index, and in a column holding NaN (distances that
    overflowed) to its first NaN. Every minimum is marked, then a loop over
    the N centers clears the hits after a column's first.
    """
    hit = x == x.min(axis=0)
    hit |= np.isnan(x)
    taken = hit[0].copy()
    for later in hit[1:]:
        np.greater(later, taken, out=later)
        taken |= later
    np.copyto(x, hit)
    return x


def _update(shared: np.ndarray, queries: np.ndarray, resp: np.ndarray, query_resp: np.ndarray,
            previous: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Responsibility-weighted means of each problem's rows, written into
    out (N, Q, d) and returned.

    resp (N, B, m) weighs the shared (m, d) rows through one GEMM over all
    N*B centers, whose output goes to the augmented-centers scratch array
    (the assignment is done with it), and query_resp (N, Q) each problem's
    (Q, d) query; B = 1 means every problem shares that GEMM. A center whose total
    responsibility is below EMPTY_CLUSTER_EPS keeps its previous value, from
    previous (N, B, d).
    """
    n, b, m = resp.shape
    sums = _work_array("centers_aug", (n, b, shared.shape[1]))
    np.matmul(resp.reshape(n * b, m), shared, out=sums.reshape(n * b, -1))
    np.multiply(query_resp[..., None], queries, out=out)
    out += sums
    mass = resp.sum(axis=2) + query_resp
    alive = mass >= EMPTY_CLUSTER_EPS
    out /= np.where(alive, mass, 1.0)[..., None]
    if not alive.all():
        np.copyto(out, previous, where=~alive[..., None])
    return out


def _cluster_batch(shared: np.ndarray, queries: np.ndarray, centers: np.ndarray,
                   config: RnnpConfig, kept: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Soft (or hard) k-means for Q independent problems at once.

    Problem q clusters the shared (m, d) rows plus its query queries[q]
    (queries is (Q, d)), starting from the (N, d) centers. No problem reads
    another's query or centers, so each result is the one that problem gives
    alone. The first round runs once for all problems: the shared rows'
    distances, assignment and weighted sums at the start centers are the
    same for every problem, and only the query terms are per problem. Later
    rounds hold the centers center-major, (N, Q, d).

    Rows and centers are first moved by the shared rows' mean, an origin no
    query moves, so far-off features keep their precision. With zero
    iterations the centers come back untouched.

    The round's large arrays are the thread's scratch (see _work_array).
    Both returned arrays are fresh: the final centers (Q, N, d), and the
    assignment of the first `kept` shared rows (all by default) computed in
    the last round (Q, N, kept): the one the final center update used, or
    with zero iterations the one at the initial centers.
    """
    n, d = centers.shape
    q = queries.shape[0]
    origin = shared.mean(axis=0)
    shared, queries = _with_ones(shared, origin), _with_ones(queries, origin)
    current = (centers - origin)[:, None, :]
    for r in range(config.iterations):
        resp, query_resp = _assign(shared, queries, current, config.clustering_mode)
        current = _update(shared[:, :d], queries[:, :d], resp, query_resp, current,
                          _work_array(f"centers{r % 2}", (n, q, d)))
    if not config.iterations:
        resp = _assign(shared, queries, current, config.clustering_mode)[0]
    final = np.add(current.transpose(1, 0, 2), origin, order="C") if config.iterations else centers
    kept_resp = resp[:, :, :kept].transpose(1, 0, 2).copy()
    return (np.broadcast_to(final, (q, n, d)),
            np.broadcast_to(kept_resp, (q,) + kept_resp.shape[1:]))


def _span_episode(episode: Episode) -> Episode:
    """The episode in its supports' span coordinates, or the episode itself
    when KN + 1 >= d.

    The span is centred on the support mean o and given a (d, KN)
    orthonormal basis B, from np.linalg.qr, of a space that holds
    span(support - o); a rank-deficient span only adds unused directions.
    Supports sit at [(s - o) B, 0] and each query x at [(x - o) B, |r|],
    where r is the part of x - o outside that space; labels, shape and seed
    are kept. Every distance among them and their weighted means (class
    means, blend hybrids, centers) is the one in R^d. Each query is
    projected by its own matrix product, so its coordinates are bit for bit
    the ones it gets alone, whatever the other queries.
    """
    kn, d = episode.support_features.shape
    if kn + 1 >= d:
        return episode
    origin = episode.support_features.mean(axis=0)
    centred_support = episode.support_features - origin
    basis = np.linalg.qr(centred_support.T)[0]
    centred = (episode.query_features - origin)[:, None, :]
    inside = np.matmul(centred, basis)
    resid = np.linalg.norm((centred - np.matmul(inside, basis.T))[:, 0], axis=1)
    support = np.zeros((kn, kn + 1))
    np.matmul(centred_support, basis, out=support[:, :-1])
    return _checked(Episode, **{**vars(episode), "support_features": support,
                                "query_features": np.column_stack([inside[:, 0], resid])})


def _refine_queries(episode: Episode, queries: np.ndarray, config: RnnpConfig,
                    initial: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Refined prototypes (Q, N, d) and support responsibilities (Q, N, KN)
    for each of the (Q, d) queries, each its own problem, in the episode's
    coordinates (d = KN + 1 on a span episode).

    unlabeled_cluster clusters supports + hybrids as shared rows and the
    query as its problem's own row, starting from initial, the (N, d)
    observed-label class means. labeled_direct skips clustering: each
    hybrid inherits its parent's observed label, the prototypes are the
    per-class means of supports plus hybrids, the same for every query,
    and the responsibilities are one-hot on the observed labels.
    """
    hybrids, parents = build_hybrids(episode, config)
    shared = np.vstack([episode.support_features, hybrids])
    if config.hybrid_labeling == "labeled_direct":
        protos = _class_means(shared, np.concatenate([episode.support_observed_labels, parents]),
                              episode.n_way)
        one_hot = np.arange(episode.n_way)[:, None] == episode.support_observed_labels
        q = queries.shape[0]
        return (np.broadcast_to(protos, (q,) + protos.shape),
                np.broadcast_to(one_hot.astype(np.float64), (q,) + one_hot.shape))
    return _cluster_batch(shared, queries, initial, config, kept=episode.support_features.shape[0])


def refine_for_query(episode: Episode, query, config: RnnpConfig) -> RefinementTrace:
    """Refine the episode's prototypes for one query.

    The Q = 1 case of the harness's batched refinement. With
    unlabeled_cluster, supports and hybrids are the shared rows and the
    query its own row; the centers start at the per-class means of the
    supports under observed labels and alternate assignment and center
    update config.iterations times. No other query participates. With
    labeled_direct nothing is clustered: each hybrid inherits its parent's
    observed label, the prototypes are plain means of supports plus
    hybrids per class, and the trace reports the observed labels
    unchanged (structurally, nothing was rectified). The query is refined
    in the episode's own coordinates, R^d for a caller's episode.

    Raises:
        DegenerateClassError: some class has no observed supports, so
            initial prototypes cannot be formed.
    """
    _check_type("config", config, RnnpConfig)
    initial = compute_prototypes(episode, "observed")
    q = as_vector(query)
    if q.shape[0] != episode.dim:
        raise InvalidInputError(f"query dim {q.shape[0]} does not match episode dim {episode.dim}")
    centers, resp = _refine_queries(episode, q[None, :], config, initial)
    return RefinementTrace(
        initial_prototypes=initial,
        refined_prototypes=centers[0],
        support_responsibilities=resp[0].T,
    )


def classify_rnnp(episode: Episode, query,
                  config: RnnpConfig) -> tuple[np.ndarray, int, RefinementTrace]:
    """Classify one query against refine_for_query's refined prototypes."""
    trace = refine_for_query(episode, query, config)
    probs, pred = classify(trace.refined_prototypes, query)
    return probs, pred, trace


def rectification_delta(episode: Episode, trace: RefinementTrace) -> tuple[int, int]:
    """Correct observed labels before refinement vs correct rectified labels after."""
    _check_type("episode", episode, Episode)
    _check_type("trace", trace, RefinementTrace)
    true = episode.support_true_labels
    if trace.rectified_labels.shape != true.shape:
        raise InvalidInputError("trace does not match the episode's support count")
    if trace.initial_prototypes.shape[0] != episode.n_way:
        raise InvalidInputError("trace does not match the episode's class count")
    before = int(np.sum(episode.support_observed_labels == true))
    after = int(np.sum(trace.rectified_labels == true))
    return before, after
