import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist

from ggeval.errors import (
    DegenerateSetError,
    DimensionMismatchError,
    KTooLargeError,
    TooFewRowsError,
)
from ggeval.metrics import (
    METRIC_NAMES,
    REPORT_FIELDS,
    MetricReport,
    evaluate,
    f1_score,
    frechet_distance,
    frechet_distance_detailed,
    prdc,
)


def sample(seed, rows=20, dim=4, shift=0.0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, dim)) + shift


# ---------------------------------------------------------------- frechet


def test_fd_one_dimensional_closed_form():
    real = np.array([[-1.0], [1.0]])  # mean 0, var 2
    gen = np.array([[2.0], [4.0]])  # mean 3, var 2
    assert frechet_distance(real, gen) == pytest.approx(9.0, abs=1e-12)
    # mean 1 var 2 vs mean 2 var 8: 1 + 2 + 8 - 2*sqrt(16) = 3
    assert frechet_distance(np.array([[0.0], [2.0]]),
                            np.array([[0.0], [4.0]])) == pytest.approx(3.0, abs=1e-12)


def test_fd_identity_and_symmetry():
    h = sample(0)
    assert frechet_distance(h, h.copy()) < 1e-8
    a, b = sample(1), sample(2, shift=0.5)
    assert abs(frechet_distance(a, b) - frechet_distance(b, a)) < 1e-8
    assert frechet_distance(a, b) >= 0.0


def test_fd_clamp_diagnostic_small_on_healthy_inputs():
    fd, clamp = frechet_distance_detailed(sample(3), sample(4))
    assert fd >= 0.0
    assert 0.0 <= clamp < 1e-8


def test_fd_out_of_float_range_is_degenerate():
    # the covariance product, about scale**4, overflows float64 from about 1e77 up
    a, b = sample(40, rows=10, dim=3), sample(41, rows=10, dim=3)
    with pytest.raises(DegenerateSetError, match="Frechet distance out of float range"):
        frechet_distance(a * 1e80, b * 1e80)
    with pytest.raises(DegenerateSetError):
        evaluate(a * 1e80, b * 1e80, k=3)
    assert np.isfinite(frechet_distance(a * 1e76, b * 1e76))


def test_fd_mean_shift_only():
    # equal covariances: FD reduces to the squared mean gap
    h = sample(5, rows=50)
    shifted = h + np.array([1.0, 0.0, 0.0, 2.0])
    assert frechet_distance(h, shifted) == pytest.approx(5.0, rel=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_fd_matches_sqrtm_oracle(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 8))
    real = rng.normal(size=(int(rng.integers(dim + 2, 40)), dim))
    gen = rng.normal(size=(int(rng.integers(dim + 2, 40)), dim)) * rng.uniform(0.5, 2)
    got = frechet_distance(real, gen)
    want = oracles.frechet_distance_slow(real, gen)
    assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_fd_rank_deficient_covariance():
    # more dims than rows: eigxsqrt route must stay finite and nonnegative
    real = sample(6, rows=5, dim=12)
    gen = sample(7, rows=6, dim=12)
    fd, _ = frechet_distance_detailed(real, gen)
    assert np.isfinite(fd) and fd >= 0.0


# ------------------------------------------------------------------ prdc


def test_prdc_identical_sets():
    h = sample(8, rows=25)
    out = prdc(h, h.copy(), k=5)
    assert out["precision"] == 1.0
    assert out["recall"] == 1.0
    assert out["coverage"] == 1.0
    # each point sits in its own ball plus the k balls it belongs to
    assert out["density"] == pytest.approx(1.0 + 1.0 / 5)


def test_prdc_disjoint_sets():
    h = sample(9, rows=15)
    out = prdc(h, h + 100.0, k=3)
    assert out == {"precision": 0.0, "recall": 0.0, "density": 0.0, "coverage": 0.0}


def test_precision_is_recall_reflected():
    a, b = sample(10, rows=18), sample(11, rows=23, shift=0.3)
    assert prdc(a, b, k=4)["precision"] == prdc(b, a, k=4)["recall"]


@pytest.mark.parametrize("seed", range(10))
def test_prdc_matches_bruteforce(seed):
    rng = np.random.default_rng(200 + seed)
    k = int(rng.integers(1, 6))
    real = rng.normal(size=(int(rng.integers(k + 2, 25)), 3))
    gen = rng.normal(size=(int(rng.integers(k + 2, 25)), 3)) + rng.uniform(0, 1)
    got = prdc(real, gen, k=k)
    want = oracles.prdc_slow(real, gen, k=k)
    for key in want:
        assert got[key] == pytest.approx(want[key], abs=1e-12), key


def test_prdc_k_too_large():
    h = sample(12, rows=5)
    with pytest.raises(KTooLargeError):
        prdc(h, h, k=5)
    # k < 1 is out of range whatever the sets, so it is checked first, as in evaluate
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            prdc(h[0], h, k=k)
    for k in (2.5, True):
        with pytest.raises(TypeError, match="k must be an integer"):
            prdc(h[0], h, k=k)
    assert prdc(h, sample(13, rows=5), k=np.int64(2)) == prdc(h, sample(13, rows=5), k=2)


# -------------------------------------------------------------------- f1


def test_f1_closed_forms():
    assert f1_score(0.0, 0.0) == 0.0
    assert f1_score(1.0, 1.0) == 1.0
    assert f1_score(0.5, 1.0) == pytest.approx(2 / 3)
    assert f1_score(0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        f1_score(-0.1, 0.5)


@settings(max_examples=50, deadline=None)
@given(st.floats(0, 4), st.floats(0, 4))
@example(x=0.03125, y=2.225073858507203e-309)  # 2*x*y underflows to a subnormal
def test_f1_bounds_and_symmetry(x, y):
    f = f1_score(x, y)
    assert f1_score(y, x) == f
    # harmonic mean <= max and <= 2*min, up to a rounding ulp
    assert 0.0 <= f <= max(x, y) * (1 + 1e-15)
    assert f <= 2 * min(x, y) * (1 + 1e-15)


# ------------------------------------------------------------------- mmd


def test_mmd_linear_hand_arithmetic():
    real = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    gen = 2.0 * real
    assert evaluate(real, gen, k=1).mmd_linear == pytest.approx(-2 / 9, abs=1e-12)


def test_mmd_rbf_hand_arithmetic():
    real = np.zeros((2, 1))
    gen = np.ones((2, 1))
    report = evaluate(real, gen, k=1)
    assert report.rbf_sigma == 1.0  # median of the pooled distances [0,0,1,1,1,1]
    assert report.mmd_rbf == pytest.approx(2.0 - 2.0 * np.exp(-0.5), abs=1e-12)


@pytest.mark.parametrize("kernel", ("linear", "rbf"))
@pytest.mark.parametrize("shifted", [True, False])
def test_mmd_matches_loop_oracle(kernel, shifted):
    # a generated set drawn off the real distribution and one drawn from it
    for seed in range(4):
        rng = np.random.default_rng(seed)
        real = rng.normal(size=(8, 3))
        gen = rng.normal(size=(11, 3)) + (0.5 if shifted else 0.0)
        report = evaluate(real, gen)
        want = oracles.mmd_slow(real, gen, kernel, sigma=report.rbf_sigma)
        assert report[f"mmd_{kernel}"] == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_mmd_rbf_uses_median_heuristic_by_default():
    a, b = sample(16), sample(17, shift=1.0)
    report = evaluate(a, b)
    assert report.rbf_sigma == np.median(pdist(np.vstack([a, b])))
    assert report.mmd_rbf == pytest.approx(
        oracles.mmd_slow(a, b, "rbf", sigma=report.rbf_sigma), rel=1e-9, abs=1e-12)


def test_median_heuristic_values():
    real = np.array([[0.0], [0.0]])
    gen = np.array([[2.0], [2.0]])
    assert evaluate(real, gen, k=1).rbf_sigma == 2.0  # [0,0,2,2,2,2] -> 2
    assert evaluate(real, real, k=1).rbf_sigma == 1.0  # degenerate -> fallback
    rng = np.random.default_rng(36)
    for rows in (5, 6):  # 10 and 15 pairs: an even and an odd count
        a, b = rng.normal(size=(rows - 2, 3)), rng.normal(size=(2, 3))
        assert evaluate(a, b, k=1).rbf_sigma == np.median(pdist(np.vstack([a, b])))


# ------------------------------------------------------------- invariance


def test_metrics_invariant_under_rotation():
    rng = np.random.default_rng(19)
    a, b = sample(20, rows=30, dim=6), sample(21, rows=25, dim=6, shift=0.4)
    q = np.linalg.qr(rng.normal(size=(6, 6)))[0]
    base = evaluate(a, b)
    rotated = evaluate(a @ q, b @ q)
    for name in ("fd", "precision", "recall", "density", "coverage",
                 "f1_pr", "f1_dc", "mmd_rbf", "rbf_sigma"):
        assert base[name] == pytest.approx(rotated[name], rel=1e-6, abs=1e-9), name


@settings(max_examples=20, deadline=None)
@given(
    arrays(np.float64, (8, 2), elements=st.floats(-100, 100)),
    arrays(np.float64, (8, 2), elements=st.floats(-100, 100)),
)
def test_metric_ranges_property(a, b):
    try:
        report = evaluate(a, b, k=2)
    except DegenerateSetError:
        return  # duplicate-heavy draws can degenerate; rejection is the contract
    assert report.fd >= 0.0
    for name in ("precision", "recall", "coverage"):
        assert 0.0 <= report[name] <= 1.0
    assert report.density >= 0.0


# ---------------------------------------------------------------- report


def test_evaluate_identity_report():
    h = sample(22, rows=30)
    report = evaluate(h, h.copy())
    assert report.fd < 1e-8
    assert report.precision == 1.0
    assert report.recall == 1.0
    assert report.coverage == 1.0
    assert report.f1_pr == 1.0
    # the unbiased estimator drops the diagonal, so identical sets land
    # below zero rather than at it
    assert report.mmd_linear < 0


def test_report_fields_and_access():
    assert REPORT_FIELDS == METRIC_NAMES + ("k", "rbf_sigma")
    report = evaluate(sample(23), sample(24), k=3)
    d = report.as_dict()
    assert tuple(d) == REPORT_FIELDS
    assert report.k == 3
    assert report["fd"] == report.fd
    assert report.rbf_sigma > 0
    with pytest.raises((AttributeError, TypeError)):
        report.fd = 1.0  # frozen


@pytest.mark.parametrize("swap", [True, False])
@pytest.mark.parametrize("scale", [None, 0.7])
def test_evaluate_matches_public_parts_bitwise(swap, scale):
    # unequal set sizes, so a transposed or swapped distance block cannot
    # go unnoticed; swapping the sets and narrowing one of them moves the
    # asymmetric PRDC scores
    a, b = sample(32, rows=23, dim=5), sample(33, rows=31, dim=5, shift=0.3)
    if scale is not None:
        b = scale * b
    if swap:
        a, b = b, a
    report = evaluate(a, b, k=4)
    scores = prdc(a, b, k=4)
    assert report.fd == frechet_distance(a, b)
    for name, value in scores.items():
        assert report[name] == value, name
    assert report.f1_pr == f1_score(scores["precision"], scores["recall"])
    assert report.f1_dc == f1_score(scores["density"], scores["coverage"])
    assert report.k == 4


def test_evaluate_checks_once_and_computes_each_distance_once(monkeypatch):
    import ggeval.metrics as metrics

    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("cdist", "pdist", "squareform", "_check_sets"):
        monkeypatch.setattr(metrics, name, counting(name, getattr(metrics, name)))
    evaluate(sample(34, rows=12), sample(35, rows=9))
    # within-set pairs once each through pdist, cross pairs through one cdist;
    # each within-set block is expanded to a full matrix once
    assert sorted(calls) == ["_check_sets", "cdist", "pdist", "pdist",
                             "squareform", "squareform"]


def test_set_validation_errors():
    h = sample(29)
    with pytest.raises(DimensionMismatchError):
        evaluate(h, h[:, :2])
    with pytest.raises(DimensionMismatchError):
        evaluate(h[0], h)
    with pytest.raises(TooFewRowsError):
        evaluate(h[:1], h)
    with pytest.raises(DegenerateSetError):
        evaluate(h, np.full_like(h, np.nan))
    # k is checked before the sets are
    with pytest.raises(ValueError, match="k must be >= 1"):
        evaluate(h[0], h, k=0)
    with pytest.raises(TypeError, match="k must be an integer"):
        evaluate(h[0], h, k=2.5)
    report = evaluate(h, sample(3, rows=len(h)), k=np.int64(2))
    assert type(report.k) is int and report.k == 2


def test_report_is_plain_data():
    report = evaluate(sample(30), sample(31))
    assert isinstance(report, MetricReport)
    blob = report.as_dict()
    assert all(isinstance(v, (int, float)) for v in blob.values())
