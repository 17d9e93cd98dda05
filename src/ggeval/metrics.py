"""Distribution-level comparison of two embedding sets.

All functions take (rows, dim) float arrays where each row is one graph
embedding. The reference (real) set comes first, the generated set second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import (
    DegenerateSetError,
    DimensionMismatchError,
    KTooLargeError,
    TooFewRowsError,
    require_integer,
)

DEFAULT_KNN_K = 5


def _check_sets(a: np.ndarray, b: np.ndarray):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatchError("embedding sets must be 2-D arrays")
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"embedding dims differ: {a.shape[1]} vs {b.shape[1]}"
        )
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise TooFewRowsError(
            f"need at least 2 rows per set, got {a.shape[0]} and {b.shape[0]}"
        )
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DegenerateSetError("embedding sets must be finite")
    return a, b


def _psd_sqrt(c: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(c)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _frechet(real: np.ndarray, gen: np.ndarray):
    mu_r = real.mean(axis=0)
    mu_g = gen.mean(axis=0)
    c_r = np.atleast_2d(np.cov(real, rowvar=False, ddof=1))
    c_g = np.atleast_2d(np.cov(gen, rowvar=False, ddof=1))
    # the cross product grows as the fourth power of the embeddings' scale
    # and overflows float64 from about 1e77; eigh then fails or returns NaN
    try:
        with np.errstate(over="raise", invalid="raise"):
            s = _psd_sqrt(c_r)
            cross_vals = np.linalg.eigvalsh(s @ c_g @ s)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise DegenerateSetError(f"Frechet distance out of float range: {exc}") from exc
    clamp = float(-np.sum(cross_vals[cross_vals < 0.0]))
    cross = 2.0 * np.sum(np.sqrt(np.clip(cross_vals, 0.0, None)))
    fd = float(np.sum((mu_r - mu_g) ** 2) + np.trace(c_r) + np.trace(c_g) - cross)
    return max(fd, 0.0), clamp


def frechet_distance_detailed(real: np.ndarray, gen: np.ndarray):
    """Frechet distance plus the magnitude of clamped negative eigenvalues.

    ||mu_r - mu_g||^2 + Tr(C_r + C_g - 2 (C_r C_g)^{1/2}), with the cross
    term evaluated through the symmetric product sqrt(C_r) C_g sqrt(C_r)
    so only real eigenvalues of a symmetric matrix are involved.
    Covariances use ddof=1. Identical sets give 0 up to float error.
    The second return value diagnoses how much negative eigenvalue mass
    the PSD clamp removed (float noise at healthy inputs).
    """
    return _frechet(*_check_sets(real, gen))


def frechet_distance(real: np.ndarray, gen: np.ndarray) -> float:
    return frechet_distance_detailed(real, gen)[0]


def _sq_dists(real: np.ndarray, gen: np.ndarray):
    """Squared Euclidean distances (real-real, gen-gen, real-gen), each pair once.

    The within-set blocks are pdist's condensed vectors, the cross block
    is the (num_real, num_gen) cdist matrix. PRDC, the median bandwidth
    and the RBF kernel read these three blocks. Their entries equal cdist
    over the pooled rows, and their sqrt equals scipy's Euclidean
    distance, bit for bit.
    """
    return (pdist(real, "sqeuclidean"), pdist(gen, "sqeuclidean"),
            cdist(real, gen, "sqeuclidean"))


def _expand(sq):
    """The three blocks as full matrices; each within-set block is expanded once."""
    sq_rr, sq_gg, sq_rg = sq
    return squareform(sq_rr), squareform(sq_gg), sq_rg


def _knn_radii(d: np.ndarray, k: int) -> np.ndarray:
    """Distance from each point to its k-th nearest other point.

    d is the full squared-distance matrix within one set; it is not
    modified. Its zero diagonal is the smallest entry of each row, so the
    k-th nearest other point is the row's (k+1)-th smallest entry.
    """
    n = d.shape[0]
    if k > n - 1:
        raise KTooLargeError(f"k={k} needs at least {k + 1} rows, got {n}")
    # sqrt is monotone, so it commutes with taking the k-th smallest
    return np.sqrt(np.partition(d, k, axis=1)[:, k])


def _prdc(full, k: int) -> dict:
    sq_rr, sq_gg, sq_rg = full
    rad_real = _knn_radii(sq_rr, k)
    rad_gen = _knn_radii(sq_gg, k)
    cross = np.sqrt(sq_rg)  # (num_real, num_gen)

    in_real_ball = cross <= rad_real[:, None]
    in_gen_ball = cross <= rad_gen[None, :]
    return {
        "precision": float(in_real_ball.any(axis=0).mean()),
        "recall": float(in_gen_ball.any(axis=1).mean()),
        "density": float(in_real_ball.sum(axis=0).mean() / k),
        "coverage": float(in_real_ball.any(axis=1).mean()),
    }


def prdc(real: np.ndarray, gen: np.ndarray, k: int = DEFAULT_KNN_K) -> dict:
    """Precision, recall, density and coverage from k-NN balls.

    precision  fraction of generated points inside some real point's ball
    recall     fraction of real points inside some generated point's ball
    density    mean over generated points of (real balls containing it)/k
    coverage   fraction of real balls containing a generated point

    Balls use Euclidean distance to the k-th nearest neighbor within the
    point's own set, self excluded.
    """
    k = require_integer("k", k, 1)
    real, gen = _check_sets(real, gen)
    return _prdc(_expand(_sq_dists(real, gen)), k)


def f1_score(x: float, y: float) -> float:
    """Harmonic mean, defined as 0 when both inputs are 0."""
    if x < 0 or y < 0:
        raise ValueError("f1_score expects nonnegative inputs")
    if x + y == 0:
        return 0.0
    # 2*x*y underflows for tiny inputs; dividing first keeps the ratio
    # hi/(x+y) in [1/2, 1], so the result is <= 2*min(x, y) and symmetric
    lo, hi = min(x, y), max(x, y)
    return 2.0 * lo * (hi / (x + y))


def _median_sigma(sq) -> float:
    """Median pairwise distance over the pooled sample; 1.0 if degenerate."""
    sq_rr, sq_gg, sq_rg = sq
    # every unordered pair of the pooled rows once
    vals = np.concatenate((sq_rr, sq_gg, sq_rg.ravel()))
    # np.median of the distances, from one selection: sqrt is monotone, so
    # the middle distances are the roots of the middle squared distances,
    # and the lower middle one is the largest below the middle index. The
    # finite inputs make no NaN distance, which np.median would look for.
    mid = vals.size // 2
    vals.partition(mid)
    middle = vals[mid:mid + 1] if vals.size % 2 else [vals[:mid].max(), vals[mid]]
    med = float(np.mean(np.sqrt(middle)))
    if not np.isfinite(med) or med <= 0.0:
        return 1.0
    return med


def _rbf_blocks(full, sigma: float):
    """(K_rr, K_gg, K_rg) of the rbf kernel from the expanded squared-distance blocks."""
    # sq/sigma^2 may overflow to inf for denormal sigma; exp(-inf) = 0
    # is the correct limit, so suppress the spurious warning
    with np.errstate(over="ignore"):
        return tuple(np.exp(-block / (2.0 * sigma * sigma)) for block in full)


def _mmd(k_rr, k_gg, k_rg) -> float:
    """Unbiased squared MMD from the three kernel blocks.

    The U-statistic drops the diagonal and normalizes within-set sums by
    M(M-1), so it can be slightly negative.
    """
    m, n = k_rg.shape
    term_r = (k_rr.sum() - np.trace(k_rr)) / (m * (m - 1))
    term_g = (k_gg.sum() - np.trace(k_gg)) / (n * (n - 1))
    return float(term_r + term_g - 2.0 * k_rg.sum() / (m * n))


def _mmd_linear(real: np.ndarray, gen: np.ndarray) -> float:
    """_mmd of the linear kernel, in closed form from column sums (Gretton
    et al. 2012): (|Sx|^2 - sum |x_i|^2) / (m(m-1)) + the same for y -
    2 Sx.Sy / (mn). No Gram product, so no BLAS call whose rounding
    depends on the thread count."""
    (m, _), (n, _) = real.shape, gen.shape
    sx, sy = real.sum(axis=0), gen.sum(axis=0)
    term_r = (np.sum(sx * sx) - np.sum(np.square(real))) / (m * (m - 1))
    term_g = (np.sum(sy * sy) - np.sum(np.square(gen))) / (n * (n - 1))
    return float(term_r + term_g - 2.0 * np.sum(sx * sy) / (m * n))


METRIC_NAMES = (
    "fd",
    "precision",
    "recall",
    "density",
    "coverage",
    "f1_pr",
    "f1_dc",
    "mmd_linear",
    "mmd_rbf",
)

# full serialization order: scores plus the settings they were computed under
REPORT_FIELDS = METRIC_NAMES + ("k", "rbf_sigma")


@dataclass(frozen=True)
class MetricReport:
    fd: float
    precision: float
    recall: float
    density: float
    coverage: float
    f1_pr: float
    f1_dc: float
    mmd_linear: float
    mmd_rbf: float
    k: int
    rbf_sigma: float

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in REPORT_FIELDS}

    def __getitem__(self, name: str) -> float:
        if name not in REPORT_FIELDS:
            raise KeyError(name)
        return getattr(self, name)


def evaluate(real: np.ndarray, gen: np.ndarray, k: int = DEFAULT_KNN_K) -> MetricReport:
    """All metrics of the generated set against the reference set.

    PRDC uses k-NN balls. Both MMDs are the unbiased estimator, and the
    rbf kernel's bandwidth is the median pairwise distance of the pooled
    sample (1.0 if that is not positive). The report records k and the
    bandwidth alongside the scores.
    """
    k = require_integer("k", k, 1)
    real, gen = _check_sets(real, gen)
    sq = _sq_dists(real, gen)
    sigma = _median_sigma(sq)
    full = _expand(sq)
    del sq  # the condensed within-set blocks are not read again
    scores = _prdc(full, k)
    return MetricReport(
        fd=_frechet(real, gen)[0],
        precision=scores["precision"],
        recall=scores["recall"],
        density=scores["density"],
        coverage=scores["coverage"],
        f1_pr=f1_score(scores["precision"], scores["recall"]),
        f1_dc=f1_score(scores["density"], scores["coverage"]),
        mmd_linear=_mmd_linear(real, gen),
        mmd_rbf=_mmd(*_rbf_blocks(full, sigma)),
        k=k,
        rbf_sigma=sigma,
    )
