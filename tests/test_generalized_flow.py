"""Radial-direction predicate for the one-parameter family I + beta I_perp."""

import pytest

from imcvf.chart import CoordinatePoint, SphericalMetric
from imcvf.sphere import generalized_flow_radial_residual, mean_curvature_values


def test_spherical_chart_radial_for_beta_zero():
    g = SphericalMetric("1+1/r", "1").block()
    h_r, h_n, _ = mean_curvature_values(g, CoordinatePoint(0.0, 2.0, 1.0, 0.3).env(),
                                        method="closed")
    assert generalized_flow_radial_residual(h_r, h_n, 0.0) <= 1e-15


def test_nonzero_beta_tilts_the_direction():
    # H = (-1, 0), so I = (1, 0): the perp leg contributes beta exactly
    assert generalized_flow_radial_residual(-1.0, 0.0, 0.25) == pytest.approx(0.25)


def test_beta_can_cancel_a_timelike_component():
    # H = (-2, 1), so I = (2/3, -1/3); beta = I_n / I_r restores radial
    # flow... with a sign
    beta = -(-1.0 / 3.0) / (2.0 / 3.0)
    assert generalized_flow_radial_residual(-2.0, 1.0, beta) <= 1e-15
    assert generalized_flow_radial_residual(-2.0, 1.0, 0.0) == pytest.approx(1.0 / 3.0)
