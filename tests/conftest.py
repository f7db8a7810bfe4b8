"""Shared fixtures: tiny hand-checkable instances, a random-instance factory
and the scalar reference for the random streams."""

import bisect
import hashlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from lowpref import (
    GeneratorConfig,
    ValidationError,
    make_instance,
    make_paper_instance,
    validate_instance,
)
from lowpref.instances import QR_SVD_ENTRIES

# The instances the benchmark runs on.
COMMITTED = sorted(
    (Path(__file__).resolve().parents[1] / "perfbench" / "instances").glob("*.json")
)


@pytest.fixture(scope="session")
def t1():
    """Single state, two actions, scalar features; rewards 1 and 0."""
    features = np.array([[[1.0], [0.0]]])
    schedule = np.zeros((1, 2, 2))
    schedule[0, 0, 1] = 1.0
    return validate_instance(make_instance(features, [1.0], [1.0], schedule, 1.0))


@pytest.fixture(scope="session")
def wide_gap():
    """t1's geometry with rewards -360 and 360: the gap of 720 overflows exp."""
    features = np.array([[[-1.0], [1.0]]])
    schedule = np.zeros((1, 2, 2))
    schedule[0, 0, 1] = 1.0
    return validate_instance(make_instance(features, [360.0], [1.0], schedule, 360.0))


@pytest.fixture(scope="session")
def t2():
    """Two states sharing the same scalar features, unequal comparison mass."""
    features = np.array([[[1.0], [0.0]], [[1.0], [0.0]]])
    schedule = np.zeros((2, 2, 2))
    schedule[0, 0, 1] = 0.2
    schedule[1, 0, 1] = 0.8
    return validate_instance(make_instance(features, [1.0], [0.5, 0.5], schedule, 1.0))


@pytest.fixture(scope="session")
def tri():
    """One state, three planar actions, only (0,1) and (1,2) compared."""
    features = np.array([[[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]])
    schedule = np.zeros((1, 3, 3))
    schedule[0, 0, 1] = 0.5
    schedule[0, 1, 2] = 0.5
    return validate_instance(
        make_instance(features, [1.0, -0.5], [1.0], schedule, 1.0)
    )


@pytest.fixture(scope="session")
def paper_instance():
    return make_paper_instance(GeneratorConfig(num_states=2, num_actions=10, dim=5, seed=7))


def random_consistent_instance(rng, s_max=3, a_max=4, d_max=4):
    """Random instance whose schedule provably spans all pairwise differences.

    Either every (i < j) cell carries mass (full mode) or only the chain
    (i, i + 1) does; chains still span every within-state difference by
    telescoping.
    """
    while True:
        S = int(rng.integers(1, s_max + 1))
        A = int(rng.integers(2, a_max + 1))
        d = int(rng.integers(1, d_max + 1))
        features = rng.normal(size=(S, A, d))
        theta = rng.normal(size=d)
        schedule = np.zeros((S, A, A))
        if rng.random() < 0.5:
            iu, ju = np.triu_indices(A, k=1)
            schedule[:, iu, ju] = rng.random(size=(S, iu.size)) + 0.1
        else:
            for i in range(A - 1):
                schedule[:, i, i + 1] = rng.random(size=S) + 0.1
        schedule /= schedule.sum()
        rho = rng.dirichlet(np.ones(S))
        rewards = features @ theta
        bound = float(np.max(np.abs(rewards))) + 0.1
        try:
            return validate_instance(
                make_instance(features, theta, rho, schedule, bound)
            )
        except Exception:
            continue  # measure-zero tie or duplicate; redraw


def random_tall_instance(rng, deficient=False):
    """Random all-pairs instance with S <= 2, A from 30 to 60 and d from 2 to 4:
    m = S·A(A−1)/2 pairs, whose m·d weighted differences fall on either side of
    ``QR_SVD_ENTRIES``.  ``deficient`` puts the features in a (d−1)-dimensional
    subspace, so the observed span has rank r < d."""
    while True:
        S, A, d = int(rng.integers(1, 3)), int(rng.integers(30, 61)), int(rng.integers(2, 5))
        r = d - 1 if deficient else d
        features = rng.normal(size=(S, A, r)) @ rng.normal(size=(r, d))
        theta = rng.normal(size=d)
        schedule, (iu, ju) = np.zeros((S, A, A)), np.triu_indices(A, k=1)
        schedule[:, iu, ju] = rng.random(size=(S, iu.size)) + 0.1
        schedule /= schedule.sum()
        bound = float(np.max(np.abs(features @ theta))) + 0.1
        try:
            return validate_instance(
                make_instance(features, theta, np.full(S, 1.0 / S), schedule, bound)
            )
        except ValidationError:
            continue  # measure-zero tie; redraw


def _qr_first(v):
    """Whether ``span_svd`` factors the instance's weighted differences QR-first."""
    return len(v.observed_pairs()) * v.dim > QR_SVD_ENTRIES


def tall_instances(seed, count=6):
    """``count`` random tall instances, covering both sides of ``QR_SVD_ENTRIES``,
    then a rank-deficient one whose design is factored QR-first."""
    rng = np.random.default_rng(seed)
    instances = [random_tall_instance(rng) for _ in range(count)]
    assert {_qr_first(v) for v in instances} == {False, True}
    deficient = random_tall_instance(rng, deficient=True)
    while not _qr_first(deficient):
        deficient = random_tall_instance(rng, deficient=True)
    return instances + [deficient]


def _record_terms(data, features):
    """Per-record feature differences x and signs y (+1 when the first action won)."""
    rec = data.records
    x = features[rec[:, 0], rec[:, 1]] - features[rec[:, 0], rec[:, 2]]
    y = np.where(rec[:, 3] == 1, 1.0, -1.0)
    return x, y


def mle_log_likelihood(data, features, theta):
    """Logistic log-likelihood summed record by record: the reference for the
    per-pair fit."""
    x, y = _record_terms(data, features)
    return -float(np.logaddexp(0.0, -y * (x @ theta)).sum())


def mle_gradient(data, features, theta):
    """Gradient of the per-record log-likelihood (not the negative)."""
    x, y = _record_terms(data, features)
    return (y / (1.0 + np.exp(y * (x @ theta)))) @ x


def sensitivity_audit(schedule, n):
    """Exact per-pair change in the success rate from flipping one label: the
    reference for the Gaussian mechanism's noise scales."""
    pairs = np.argwhere(schedule > 0)
    return {
        (int(k), int(i), int(j)): float(1.0 / (n * schedule[k, i, j]))
        for k, i, j in pairs
    }


# A scalar SplitMix64 on Python ints: the reference for ``lowpref.rng``.  The
# floats it returns go through numpy's log1p and cos on one-element arrays,
# as a vectorised libm (numpy's on AVX-512, say) need not round as ``math``.
GAMMA = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def mix64(z):
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK64
    return z ^ z >> 31


def unmix64(z):
    """The inverse of ``mix64``: each xorshift undone by iterating it, each
    product by the multiplier's inverse mod 2**64."""
    for shift, mult in ((31, 0x94D049BB133111EB), (27, 0xBF58476D1CE4E5B9), (30, None)):
        y = z
        for _ in range(64 // shift + 1):
            z = y ^ z >> shift
        if mult is not None:
            z = z * pow(mult, -1, 1 << 64) & MASK64
    return z


def oracle_key(*parts):
    """The stream key of a label tuple: ``h = mix64(h ^ label)`` from h = 0,
    a string label being the first 8 bytes of its SHA-256, little-endian."""
    key = 0
    for part in parts:
        if isinstance(part, str):
            part = int.from_bytes(hashlib.sha256(part.encode("utf-8")).digest()[:8], "little")
        key = mix64(key ^ int(part) & MASK64)
    return key


def oracle_word(key, t):
    """Word t of the stream: SplitMix64's output t + 1 from state ``key``."""
    return mix64(key + (t + 1) * GAMMA & MASK64)


def oracle_uniforms(key, count):
    return [(oracle_word(key, t) >> 11) * 2.0**-53 for t in range(count)]


def oracle_normal(key, std):
    u0, u1 = oracle_uniforms(key, 2)
    radius = math.sqrt(-2.0 * float(np.log1p(np.array([-u0]))[0]))
    return std * (radius * float(np.cos(np.array([2.0 * math.pi * u1]))[0]))


def oracle_integer(key, size):
    return int(oracle_uniforms(key, 1)[0] * size)


def oracle_count_cdf(count, p):
    """Bin(count, p)'s CDF at w = 0..count on Python floats: ``math.lgamma``
    log-pmfs, a zero factor times a log of 0 taken as 0, one running sum over
    its own total."""
    log_p = math.log(p) if p > 0 else -math.inf
    log_q = math.log1p(-p) if p < 1 else -math.inf
    pmf = [math.exp(math.lgamma(count + 1) - math.lgamma(w + 1) - math.lgamma(count - w + 1)
                    + (w * log_p if w else 0.0) + ((count - w) * log_q if count > w else 0.0))
           for w in range(count + 1)]
    cdf = list(itertools.accumulate(pmf))
    return [x / cdf[-1] for x in cdf]


def oracle_wins(seed, pair, cdf):
    """A pair's wins: the entries of its count CDF at or below word 0 of its
    (seed, "sample", k, i, j) stream.  The CDF's entries may differ from
    numpy's by an ulp, which moves a draw only for a uniform within that ulp."""
    return bisect.bisect_right(cdf, oracle_uniforms(oracle_key(seed, "sample", *pair), 1)[0])
