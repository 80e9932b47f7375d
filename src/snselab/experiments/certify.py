"""Triangle certificate of the clamped distance: ``snse-lab
certify-metric``, acceptance gate 11.

The gate passes when neither the metric triangle inequality nor the
weighted generalized one (gamma = 2) is violated on any random triple.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .. import measures as measures_mod
from .. import rng, spectral
from ..measures import DistanceParams, default_alpha
from ..spectral import make_grid
from . import StudyReport, _at_least


@dataclass(frozen=True)
class CertifyMetricConfig:
    triples: int = 10_000
    shells: int = 16
    nu: float = 1.0
    forcing_variance: float = 0.5
    eps: float = 0.1
    s: float = 0.5
    alpha: float | None = None

    def __post_init__(self):
        _at_least(self, triples=1, shells=1, forcing_variance=0.0)


def certify_metric_study(cfg: CertifyMetricConfig, seed: int) -> StudyReport:
    """Metric axioms of the clamped distance plus the weighted generalized
    triangle inequality (gamma = 2), tested on random field triples."""
    grid = make_grid(cfg.shells)
    alpha = cfg.alpha if cfg.alpha is not None else default_alpha(
        cfg.nu, cfg.forcing_variance)
    dp = DistanceParams(cfg.eps, cfg.s, alpha)

    n = cfg.triples
    z = rng.standard_normals(seed, [0], np.arange(3 * n), 2 * grid.n_half,
                             tag=rng.Tag.SAMPLES)[0]
    # normalized so |field| ~ O(1), matching the energy scale of the dynamics
    norm = 2.0 * np.pi * np.sqrt(2.0 * grid.n_half)
    u, v, w = (z / norm).reshape(n, 3, -1).transpose(1, 0, 2)

    r_uv, r_uw, r_wv = (
        measures_mod.rho_from_dist(np.sqrt(spectral.packed_norm_sq(x - y)), dp)
        for x, y in ((u, v), (u, w), (w, v)))
    metric_violations = int(np.sum(r_uv > r_uw + r_wv + 1e-12))

    cert = measures_mod.certify_triangle(dp, 2.0, u, v, w)

    report = StudyReport("metric-certification", asdict(cfg), seed)
    report.scalars["k_tilde"] = cert.k_tilde
    report.scalars["metric_triangle_violations"] = metric_violations
    report.scalars["weighted_triangle_violations"] = len(cert.violations)
    report.checks["metric-axioms"] = metric_violations == 0
    report.checks["weighted-triangle"] = len(cert.violations) == 0
    report.tables["violations"] = [
        {"index": i, "log_lhs": a, "log_rhs": b} for i, a, b in cert.violations]
    return report
