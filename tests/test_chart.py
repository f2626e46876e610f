"""Block metric evaluation, determinant and inverse closed forms."""

import json
import math

import numpy as np
import pytest

from imcvf.chart import (
    BlockMetric,
    CoordinatePoint,
    det_values,
    inverse_values,
    load_chart,
    metric_values,
    save_chart,
)
from imcvf.errors import SingularMetricError
from imcvf.expr import lit, parse

from conftest import spherical_block


def minkowski():
    return spherical_block("1", "1")


def schwarzschild_areal(m=1.0):
    u = parse("(1-2*m/r)^(-0.5)", params={"m": m})
    v = parse("(1-2*m/r)^0.5", params={"m": m})
    return spherical_block(u, v)


def random_block_metric(rng):
    """A valid Lorentzian block metric with all eight components active."""
    eps = rng.uniform(0.01, 0.08)
    return BlockMetric(
        v=f"1+{rng.uniform(0.0, 0.4):.4f}*exp(-0.1*r)",
        d=f"{eps:.5f}*sin(th)^2*cos(ph)",
        e=f"{eps:.5f}*r*sin(th)^2",
        f=f"{eps:.5f}*sin(th)^3*sin(ph)",
        u=f"1+{rng.uniform(0.0, 0.5):.4f}/r",
        a=f"r^2*(1+{eps:.5f}*sin(th)*cos(ph))",
        b=f"r^2*sin(th)^2*(1+{eps:.5f}*sin(th)*sin(ph))",
        c=f"{eps:.5f}*r^2*sin(th)^2",
    )


def random_point(rng):
    return CoordinatePoint(t=rng.uniform(-1, 1), r=rng.uniform(1.2, 8.0),
                           th=rng.uniform(0.3, math.pi - 0.3),
                           ph=rng.uniform(0.0, 2 * math.pi))


def cofactor_det(m):
    """Brute-force determinant by cofactor expansion along the first row."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * cofactor_det(minor)
    return total


# ---------------------------------------------------------------------------

def test_point_validation():
    with pytest.raises(ValueError):
        CoordinatePoint(0.0, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match=r"r\^2 must be finite, got r = 1e\+200"):
        CoordinatePoint(0.0, 1e200, 1.0, 0.0)
    with pytest.raises(ValueError):
        CoordinatePoint(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        CoordinatePoint(0.0, 1.0, math.pi, 0.0)


def test_point_phi_normalized():
    p = CoordinatePoint(0.0, 1.0, 1.0, 2 * math.pi + 0.25)
    assert p.ph == pytest.approx(0.25)
    assert CoordinatePoint(0.0, 1.0, 1.0, -0.5).ph == pytest.approx(2 * math.pi - 0.5)


def test_minkowski_matrix():
    p = CoordinatePoint(0.0, 2.0, math.pi / 2, 0.0)
    m = metric_values(minkowski(), p.env())
    np.testing.assert_allclose(m, np.diag([-1.0, 1.0, 4.0, 4.0]), atol=1e-15)


def test_schwarzschild_areal_components():
    p = CoordinatePoint(0.0, 4.0, math.pi / 2, 0.0)
    m = metric_values(schwarzschild_areal(1.0), p.env())
    assert m[0, 0] == pytest.approx(-0.5)
    assert m[1, 1] == pytest.approx(2.0)


def test_off_block_zeros():
    g = BlockMetric(v="1", d="0.3", e="0", f="0", u="1", a="r^2",
                    b="r^2*sin(th)^2", c="0")
    m = metric_values(g, CoordinatePoint(0.0, 2.0, 1.0, 1.0).env())
    assert m[1, 2] == 0.0 and m[1, 3] == 0.0
    assert m[0, 1] == pytest.approx(0.3)


def test_det_minkowski():
    p = CoordinatePoint(0.0, 1.0, math.pi / 2, 0.0)
    assert det_values(minkowski(), p.env()) == pytest.approx(-1.0)


def test_det_spherical_closed_form():
    g = spherical_block("1+1/r", "2")
    p = CoordinatePoint(0.0, 2.0, 0.9, 0.3)
    u, v, r = 1.5, 2.0, 2.0
    expected = -(u * v) ** 2 * r**4 * math.sin(0.9) ** 2
    assert det_values(g, p.env()) == pytest.approx(expected, rel=1e-12)


def test_det_block_diagonal():
    g = BlockMetric(v="2", d="0", e="0", f="0", u="3", a="5", b="7", c="0")
    p = CoordinatePoint(0.0, 1.0, 1.0, 1.0)
    assert det_values(g, p.env()) == pytest.approx(-4.0 * 9.0 * 35.0)


def test_det_against_cofactor_expansion():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        g = random_block_metric(rng)
        p = random_point(rng)
        m = metric_values(g, p.env())
        ref = cofactor_det(m)
        worst = max(worst, abs(det_values(g, p.env()) - ref) / abs(ref))
    assert worst <= 1e-10


def test_inverse_minkowski():
    p = CoordinatePoint(0.0, 2.0, math.pi / 3, 0.0)
    inv = inverse_values(minkowski(), p.env())
    r2 = 4.0
    expected = np.diag([-1.0, 1.0, 1.0 / r2, 1.0 / (r2 * math.sin(math.pi / 3) ** 2)])
    np.testing.assert_allclose(inv, expected, atol=1e-14)


def test_inverse_tr_entry_with_d():
    g = BlockMetric(v="1", d="0.2", e="0", f="0", u="1", a="r^2",
                    b="r^2*sin(th)^2", c="0")
    p = CoordinatePoint(0.0, 2.0, 1.1, 0.4)
    w = p.r**4 * math.sin(p.th) ** 2
    det = det_values(g, p.env())
    inv = inverse_values(g, p.env())
    assert inv[0, 1] == pytest.approx(-0.2 * w / det, rel=1e-12)


def test_inverse_against_identity():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = random_block_metric(rng)
        p = random_point(rng)
        m = metric_values(g, p.env())
        inv = inverse_values(g, p.env())
        np.testing.assert_allclose(m @ inv, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(inv, np.linalg.inv(m), atol=1e-9)


def test_signature():
    rng = np.random.default_rng(13)
    for _ in range(50):
        g = random_block_metric(rng)
        p = random_point(rng)
        ev = np.linalg.eigvalsh(metric_values(g, p.env()))
        assert ev[0] < 0 and np.all(ev[1:] > 0)


def test_singular_metric_raises():
    g = BlockMetric(v="t", d="0", e="0", f="0", u="1", a="r^2",
                    b="r^2*sin(th)^2", c="0")
    with pytest.raises(SingularMetricError):
        inverse_values(g, CoordinatePoint(0.0, 1.0, 1.0, 0.0).env())


def test_spherical_layout_constraint():
    g = spherical_block("1+1/r", "1")
    p = CoordinatePoint(0.0, 3.0, 0.7, 0.2)
    m = metric_values(g, p.env())
    w = m[2, 2] * m[3, 3] - m[2, 3] ** 2
    assert w == pytest.approx(p.r**4 * math.sin(p.th) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# chart files
# ---------------------------------------------------------------------------

def test_chart_roundtrip(tmp_path):
    path = tmp_path / "chart.json"
    doc = {"v": "1", "d": "0", "e": "0", "f": "0", "u": "(1-2*m/r)^(-0.5)",
           "a": "r^2", "b": "r^2*sin(th)^2", "c": "0", "params": {"m": 1.0}}
    path.write_text(json.dumps(doc))
    cf = load_chart(str(path))
    g = cf.metric()
    p = CoordinatePoint(0.0, 4.0, math.pi / 2, 0.0)
    assert metric_values(g, p.env())[1, 1] == pytest.approx(2.0)

    out = tmp_path / "saved.json"
    save_chart(g, out)
    g2 = load_chart(str(out)).metric()
    np.testing.assert_allclose(metric_values(g2, p.env()), metric_values(g, p.env()),
                               rtol=1e-14)


def test_save_chart_refuses_an_unparseable_literal(tmp_path):
    """A component folded to inf through the Python API has no chart text;
    save_chart raises before it opens the file."""
    g = BlockMetric(v="1", d=lit(1e308) * 10 * parse("r"), e="0", f="0", u="1",
                    a="r^2", b="r^2*sin(th)^2", c="0")
    out = tmp_path / "saved.json"
    with pytest.raises(ValueError):
        save_chart(g, out)
    assert not out.exists()


def test_chart_missing_d_requires_solve_flag(tmp_path):
    doc = {"v": "1", "e": "0", "f": "0", "u": "1", "a": "r^2",
           "b": "r^2*sin(th)^2", "c": "0"}
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(KeyError):
        load_chart(str(path))
    doc["solve_d"] = True
    path.write_text(json.dumps(doc))
    cf = load_chart(str(path))
    assert cf.solve_d and cf.exprs["d"] is None
    with pytest.raises(ValueError):
        cf.metric()


@pytest.mark.parametrize("theta_min", [float("nan"), float("inf"), "1e-3", 0, -0.1,
                                       math.pi / 2, 1.6, True, [1]])
def test_block_metric_refuses_a_theta_min_outside_its_range(theta_min):
    """validate samples theta on [theta_min, pi - theta_min], which lies in
    (0, pi) and runs forwards only for a real theta_min in (0, pi/2)."""
    with pytest.raises(ValueError, match=r"theta_min must be a real number in \(0, pi/2\)"):
        BlockMetric(v="1", d="0", e="0", f="0", u="1", a="r^2", b="r^2*sin(th)^2", c="0",
                    theta_min=theta_min)


@pytest.mark.parametrize("theta_min", [1e-3, 1, np.float32(0.5), 1.57])
def test_block_metric_keeps_a_theta_min_in_range_as_a_float(theta_min):
    g = BlockMetric(v="1", d="0", e="0", f="0", u="1", a="r^2", b="r^2*sin(th)^2", c="0",
                    theta_min=theta_min)
    assert type(g.theta_min) is float and g.theta_min == float(theta_min)


_MINKOWSKI_DOC = {"v": "1", "d": "0", "e": "0", "f": "0", "u": "1",
                  "a": "r^2", "b": "r^2*sin(th)^2", "c": "0"}


@pytest.mark.parametrize("value", [None, True, False, [1], {"x": 1}, ["1"]])
def test_load_chart_refuses_a_component_that_is_not_a_string_or_a_number(value):
    """null, a boolean, a list and an object are refused by the key's name,
    where their str() was parsed ('None', 'True', '[1]')."""
    with pytest.raises(ValueError, match=r"^chart component 'u' must be an expression "
                                         r"string or a number, got "):
        load_chart(dict(_MINKOWSKI_DOC, u=value))


@pytest.mark.parametrize("value, source", [(1, "1.0"), (2.5, "2.5"), (-3, "(-3.0)"),
                                           ("1+r", "1.0 + r")])
def test_load_chart_reads_a_number_or_a_string_component(value, source):
    from imcvf.expr import to_source

    cf = load_chart(dict(_MINKOWSKI_DOC, u=value))
    assert to_source(cf.exprs["u"]) == source
