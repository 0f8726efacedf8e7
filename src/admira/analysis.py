"""Recovery-quality metrics and consistency checks.

Covers the inherent error floor of rank-r approximation (tail energy
plus noise), octave-band spectral profiles with the iteration bound they
imply, SNR metrics in dB, the nuclear norm, and Monte Carlo consistency
checks of the restricted-isometry inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import RANK_TOL, FactoredMatrix, _norm, full_svd, svd_of_factored
from .operators import _rng, estimate_delta_profile

SNR_CAP_DB = 300.0


@dataclass(frozen=True)
class ErrorBudget:
    """Error floor of approximating a matrix at a fixed rank.

    ``epsilon = frob_tail + nuc_tail / sqrt(rank) + noise``: no estimate
    of that rank can beat this scale, regardless of algorithm.
    """

    rank: int
    frob_tail: float
    nuc_tail: float
    noise: float
    epsilon: float


@dataclass(frozen=True)
class BandProfile:
    """Occupancy of one-octave bins of normalized squared singular values.

    ``bands`` maps bin index j to the number of singular values with
    2^-(j+1) < sigma^2 / ||X||_F^2 <= 2^-j; ``t`` counts nonempty bins
    and never exceeds the rank.
    """

    bands: dict[int, int]
    t: int
    rank: int


def _spectrum(X):
    if isinstance(X, FactoredMatrix):
        F = X if X.orthonormal else svd_of_factored(X)
        s = np.asarray(F.sigmas)
    else:
        s = np.asarray(full_svd(X).sigmas)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros(0)
    return s[s > RANK_TOL * s[0]]


def unrecoverable_energy(X0, r, noise_norm=0.0):
    """Error budget of rank-``r`` approximation of ``X0`` under noise of
    the given norm: Frobenius and nuclear tails beyond the r leading
    singular values, combined into the single epsilon figure."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if noise_norm < 0:
        raise ValueError("noise_norm must be nonnegative")
    s = _spectrum(X0)
    tail = s[r:]
    frob_tail = float(np.sqrt(np.sum(tail**2)))
    nuc_tail = float(np.sum(tail))
    eps = frob_tail + nuc_tail / math.sqrt(r) + noise_norm
    return ErrorBudget(r, frob_tail, nuc_tail, float(noise_norm), float(eps))


def profile(X):
    """Octave-band profile of the spectrum.

    Depends only on the singular values, so it is invariant under
    orthogonal transformations and positive scaling.  Zero matrices have
    no profile and raise.
    """
    s = _spectrum(X)
    if s.size == 0:
        raise ValueError("profile of the zero matrix is undefined")
    normalized_sq = s**2 / np.sum(s**2)
    # 2^-(j+1) < x <= 2^-j  <=>  j = floor(-log2 x); exact 1.0 lands in 0.
    idx = np.floor(-np.log2(normalized_sq)).astype(int)
    idx = np.maximum(idx, 0)
    bands = {}
    for j in idx:
        bands[int(j)] = bands.get(int(j), 0) + 1
    return BandProfile(bands, len(bands), int(s.size))


def iteration_bound(r, t):
    """Iteration cap implied by a rank-``r`` spectrum occupying ``t``
    octave bands: ``t log_{4/3}(1 + 4.3 sqrt(r/t)) + 6``.  Maximized at
    t = r, where it stays below 6 (r + 1)."""
    if not 1 <= t <= r:
        raise ValueError("need 1 <= t <= r")
    return t * math.log(1.0 + 4.3 * math.sqrt(r / t), 4.0 / 3.0) + 6.0


def _as_dense(X):
    return X.densify() if isinstance(X, FactoredMatrix) else np.asarray(X, dtype=np.float64)


def snr_recon(X0, Xhat):
    """Reconstruction SNR in dB: ``20 log10(||X0||_F / ||X0 - Xhat||_F)``,
    capped at +300 dB so exact recovery stays finite in CSV output."""
    X0, Xhat = _as_dense(X0), _as_dense(Xhat)
    if X0.shape != Xhat.shape:
        raise ValueError(f"snr_recon: ground truth {X0.shape} and estimate {Xhat.shape} differ")
    signal = _norm(X0)
    if signal == 0.0:
        raise ValueError("snr_recon undefined for zero ground truth")
    diff = X0 - Xhat
    err = _norm(diff, out=diff)
    if err == 0.0:
        return SNR_CAP_DB
    return float(min(20.0 * math.log10(signal / err), SNR_CAP_DB))


def snr_meas(b, nu):
    """Measurement SNR in dB: ``20 log10(||b||_2 / ||nu||_2)``, capped at
    +300 dB for noiseless data."""
    b = np.asarray(b, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    b_norm = _norm(b)
    if b_norm == 0.0:
        raise ValueError("snr_meas undefined for zero measurements")
    nu_norm = _norm(nu)
    if nu_norm == 0.0:
        return SNR_CAP_DB
    return float(min(20.0 * math.log10(b_norm / nu_norm), SNR_CAP_DB))


def nuclear_norm(X):
    """Sum of singular values."""
    return float(np.sum(_spectrum(X)))


def check_isometry_inequalities(op, r, trials, seed=0, delta_trials=200):
    """Monte Carlo consistency checks of the restricted-isometry
    inequalities at an estimated isometry constant.

    Two inequalities are sampled: the projected back-projection bound
    ``||P_Psi A* b||_F <= sqrt(1 + delta) ||b||_2`` over random
    orthonormal atom sets with at most r elements, and the mixed-norm
    bound ``||A X||_2 <= sqrt(1 + delta) (||X||_F + ||X||_* / sqrt(r))``
    over arbitrary matrices.  Because the estimated delta is only a
    lower bound on the true constant, records are labelled consistency
    evidence: a violation flags the estimate as too low rather than
    disproving the inequality.

    Returns a list of JSON-ready dicts, one per check, plus a last
    record, ``delta_nondecreasing_in_r``, whose ``deltas`` are the
    estimates for ranks 1..r.
    """
    if r < 1 or trials < 1:
        raise ValueError("need r >= 1 and trials >= 1")
    chain = estimate_delta_profile(op, r, delta_trials, seed=seed)
    est = chain[-1]
    gain = math.sqrt(1.0 + est.delta_lower)
    records = []
    for t in range(trials):
        rng = _rng(seed, 7001, t)
        size = int(rng.integers(1, r + 1))
        Qu = np.linalg.qr(rng.standard_normal((op.m, size)))[0]
        Qv = np.linalg.qr(rng.standard_normal((op.n, size)))[0]
        b = rng.standard_normal(op.p)
        back = op.adjoint(b)
        coords = np.array([Qu[:, j] @ (back @ Qv[:, j]) for j in range(size)])
        lhs = float(np.linalg.norm(coords))
        rhs = float(gain * np.linalg.norm(b))
        records.append({
            "check": "projection_bound",
            "trial": t,
            "atom_count": size,
            "lhs": lhs,
            "rhs": rhs,
            "consistent": bool(lhs <= rhs * (1 + 1e-12)),
            "delta_estimate": est.delta_lower,
            "note": "consistency evidence only; delta is a Monte Carlo lower bound",
        })

        X = rng.standard_normal((op.m, op.n))
        lhs2 = float(np.linalg.norm(op.apply(X)))
        rhs2 = float(gain * (np.linalg.norm(X) + nuclear_norm(X) / math.sqrt(r)))
        records.append({
            "check": "energy_bound",
            "trial": t,
            "lhs": lhs2,
            "rhs": rhs2,
            "consistent": bool(lhs2 <= rhs2 * (1 + 1e-12)),
            "delta_estimate": est.delta_lower,
            "note": "consistency evidence only; delta is a Monte Carlo lower bound",
        })

    deltas = [e.delta_lower for e in chain]
    records.append({
        "check": "delta_nondecreasing_in_r",
        "deltas": deltas,
        "consistent": bool(all(a <= b * (1 + 1e-12) + 1e-15
                               for a, b in zip(deltas, deltas[1:]))) if len(deltas) > 1 else True,
        "note": "nested sample reuse makes the estimates nondecreasing by construction",
    })
    return records
