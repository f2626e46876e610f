"""Steering parameter, steered normal component, minimal-surface lemma."""

import math

import numpy as np
import pytest

from imcvf.chart import BlockMetric, load_chart
from imcvf.errors import NotAreaExpandingError
from imcvf.expr import parse
from imcvf.grid import SphereGrid
from imcvf.sphere import mean_curvature_values, surface_fields
from imcvf.steering import FrameData, frame_data, steering_parameter

from conftest import EF_BUILD, seed_inputs, spherical_block, steered_normal_component, \
    trace_h_er


def unsteered_seed(kind="ef", eps=1e-2):
    """Perturbed chart with d frozen to zero: condition (4) fails, so the
    sphere needs steering."""
    ins = seed_inputs(kind, eps)
    b = (parse("r^4*sin(th)^2") + parse(ins["c"]) ** 2) / parse(ins["a"])
    return BlockMetric(v=ins["v"], d="0", e=ins["e"], f=ins["f"], u=ins["u"],
                       a=ins["a"], b=b, c=ins["c"])


def synthetic_frame(et_w=4.0, w=1.0, c_sum=1.0, er_w=2.0):
    z = 0.0
    return FrameData(a=1.0, b=1.0, c=0.0, W=w, et_W=et_w, er_W=er_w,
                     C_th_tth=c_sum, C_ph_tph=0.0, C_th_tph=z, C_ph_tth=z,
                     et_a=z, et_b=z, et_c=z, er_a=z, er_b=z, er_c=z)


# ---------------------------------------------------------------------------

def test_spherical_chart_q_vanishes():
    g = spherical_block("1+1/r", "1+0.2/r")
    grid = SphereGrid(0.0, 2.5, 12, 24)
    fd = frame_data(g, grid.env())
    q = steering_parameter(fd)
    assert np.max(np.abs(q)) <= 1e-13
    assert np.max(np.abs(fd.et_W)) <= 1e-13
    assert np.max(np.abs(fd.C_th_tth)) <= 1e-13


def test_hand_value_of_q():
    fd = synthetic_frame(et_w=4.0, w=1.0, c_sum=1.0, er_w=2.0)
    assert steering_parameter(fd) == pytest.approx((4.0 - 2.0) / 2.0)


def test_not_area_expanding_raises():
    with pytest.raises(NotAreaExpandingError):
        steering_parameter(synthetic_frame(er_w=0.0))
    with pytest.raises(NotAreaExpandingError):
        steering_parameter(synthetic_frame(er_w=-1.0))
    steering_parameter(synthetic_frame(er_w=1e-6))  # strictly positive is fine


def tangentiality_residual(fd: FrameData, q):
    """Left side of the steering condition; zero exactly at the solution."""
    return fd.er_W * q - fd.et_W + 2.0 * fd.W * (fd.C_th_tth + fd.C_ph_tph)


def test_tangentiality_residual_properties():
    fd = synthetic_frame()
    q = steering_parameter(fd)
    assert abs(tangentiality_residual(fd, q)) <= 1e-12
    delta = 0.37
    assert tangentiality_residual(fd, q + delta) == pytest.approx(fd.er_W * delta)
    # the residual is linear in q, so the root is unique: bracket it
    lo, hi = tangentiality_residual(fd, q - 1.0), tangentiality_residual(fd, q + 1.0)
    assert lo < 0 < hi


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the chart's own overflow
def test_an_er_w_that_is_not_finite_is_not_called_minimal():
    """On the golden ef chart at r = 1e76, e_r(ab - c^2) overflows to -inf
    at every node: a ValueError says so, where NotAreaExpandingError called
    the sphere minimal."""
    fd = frame_data(load_chart(EF_BUILD).metric(), SphereGrid(0.0, 1e76, 16, 32).env())
    assert np.all(np.isneginf(fd.er_W))
    with pytest.raises(ValueError, match=r"^e_r\(ab - c\^2\) is not finite on the sphere$"):
        steering_parameter(fd)
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError):
            steering_parameter(synthetic_frame(er_w=value))


def test_steering_makes_normal_component_vanish():
    g = unsteered_seed("ef", 1e-2)
    grid = SphereGrid(0.1, 2.5, 24, 48)
    env = grid.env()
    fd = frame_data(g, env)
    q = steering_parameter(fd)
    assert np.max(np.abs(q)) > 1e-6         # the chart genuinely needs steering
    assert np.max(np.abs(steered_normal_component(fd, q))) <= 1e-8


def test_unsteered_normal_component_matches_trace_formula():
    """With Q = 0 the omega assembly must reproduce the chart H_n."""
    g = unsteered_seed("e", 1e-2)
    grid = SphereGrid(0.0, 3.0, 16, 32)
    env = grid.env()
    fd = frame_data(g, env)
    h_en = steered_normal_component(fd, np.zeros_like(fd.W))
    _, h_n, _ = mean_curvature_values(g, env, method="trace")
    np.testing.assert_allclose(np.abs(h_en), np.abs(h_n), atol=1e-10)


def test_solved_chart_needs_no_steering(seed_charts):
    kind, eps, g = seed_charts[0]
    grid = SphereGrid(0.0, 2.0, 16, 32)
    fd = frame_data(g, grid.env())
    assert np.max(np.abs(steering_parameter(fd))) <= 1e-8


def test_minimal_surface_lemma_on_charts():
    g = unsteered_seed("ea", 1e-2)
    grid = SphereGrid(0.0, 2.5, 16, 32)
    env = grid.env()
    fields = surface_fields(g, env)
    fd = frame_data(g, env)
    h_er = trace_h_er(g, env, fields=fields)
    assert np.max(np.abs(2.0 * h_er * fd.W - fd.er_W)) <= 1e-8


def test_minimal_surface_lemma_round_sphere_hand_values():
    g = spherical_block("1", "1")
    env = {"t": 0.0, "r": 2.0, "th": 1.0, "ph": 0.0}
    fd = frame_data(g, env)
    h_er = trace_h_er(g, env)
    w = 16.0 * math.sin(1.0) ** 2
    assert float(fd.W) == pytest.approx(w, rel=1e-12)
    assert float(h_er) == pytest.approx(1.0, rel=1e-12)        # 2/(r u) at r=2
    assert float(fd.er_W) == pytest.approx(32.0 * math.sin(1.0) ** 2, rel=1e-12)
    assert float(np.abs(2.0 * h_er * fd.W - fd.er_W)) <= 1e-12


def test_minimal_case_residual_zero():
    """The isotropic Schwarzschild throat r = m/2 is minimal: H_{e_r} and
    e_r(ab - c^2) both vanish there, and so does the lemma's residual."""
    g = BlockMetric(v=1.0, d=0.0, e=0.0, f=0.0, u=parse("(1+1/(2*r))^2"),
                    a=parse("(1+1/(2*r))^4*r^2"), b=parse("(1+1/(2*r))^4*r^2*sin(th)^2"),
                    c=0.0)
    env = SphereGrid(0.0, 0.5, 8, 16).env()
    fd = frame_data(g, env)
    h_er = trace_h_er(g, env)
    assert np.max(np.abs(fd.er_W)) <= 1e-12
    assert np.max(np.abs(h_er)) <= 1e-12
    assert np.max(np.abs(2.0 * h_er * fd.W - fd.er_W)) <= 1e-12
