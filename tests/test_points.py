"""One convention for evaluation points, and bad array input rejected.

Every function that takes evaluation points goes through
``geometry.as_points``: a non-finite point raises ValueError, a scalar gives
a Python scalar, an array keeps its shape, and the point argument can be
passed by keyword.  Every other array of numbers goes through
``geometry.as_array``, and the complex and real fields of ``SlitSpec`` and
``EllipseParams`` through ``as_array`` and ``as_real``.  Bad input raises a
typed error that names the array and leaks no warning.
"""

import warnings

import numpy as np
import pytest

import stripcap as sc
from stripcap.capacity import charges_from_boundary
from stripcap.flow import complex_potential, horizontal_slit_map
from stripcap.geometry import BoundaryParametrization, as_array, winding_number
from stripcap.kernels import KernelSet
from stripcap.preimage import initialize
from stripcap.solver import cauchy_eval, solve_bie
from stripcap.stripmap import inverse_map, strip_gamma

# name -> (call with the point argument by keyword, a valid point, the type
# of a scalar result); ``ctx`` holds the one-slit map and its flow
POINT_FUNCTIONS = {
    "psi": (lambda ctx, p: sc.psi(w=p), 0.3, complex),
    "psi_inv": (lambda ctx, p: sc.psi_inv(zeta=p), 0.3, complex),
    "winding_number": (lambda ctx, p: winding_number(ctx["circle"], w=p), 0.3, int),
    "cauchy_eval": (
        lambda ctx, p: cauchy_eval(ctx["circle"], 1j * ctx["circle"], ctx["circle"], points=p),
        0.3,
        complex,
    ),
    "inverse_map": (lambda ctx, p: inverse_map(ctx["pre"].map, points=p), 1.0 + 0.2j, complex),
    "MapData.eval": (lambda ctx, p: ctx["pre"].map.eval(points=p), 0.9, complex),
    "complex_potential": (
        lambda ctx, p: complex_potential(ctx["pre"], ctx["ups"], points=p),
        1.0 + 0.2j,
        complex,
    ),
}

BAD_POINTS = {"nan": np.nan, "inf": np.inf, "complex-inf": complex(np.inf, np.inf)}


def _boundary(ctx, name, index, value):
    """The one-slit boundary with ``value`` written at ``name``[index]."""
    arrays = {"eta": ctx["pre"].map.bp.eta.copy(), "eta_dot": ctx["pre"].map.bp.eta_dot.copy()}
    arrays[name][index] = value
    return BoundaryParametrization(**arrays)


def _charges(ctx, alphas):
    return charges_from_boundary(KernelSet(ctx["pre"].map.bp, np.zeros(2)), alphas)


# id -> (call, error type, message pattern)
BAD_INPUT = {
    **{
        f"{name}-{bad}": (lambda ctx, f=f, v=v: f(ctx, v), ValueError, "points must be finite")
        for name, (f, _, _) in POINT_FUNCTIONS.items()
        for bad, v in BAD_POINTS.items()
        # inverse_map's are test_stripmap's TestEval::test_non_finite_point_rejected
        if name != "inverse_map"
    },
    **{
        f"BoundaryParametrization-{name}-{bad}": (
            lambda ctx, name=name, v=v: _boundary(ctx, name, (1, 5), v),
            ValueError,
            f"{name} must be finite",
        )
        for name in ("eta", "eta_dot")
        for bad, v in BAD_POINTS.items()
    },
    "BoundaryParametrization-eta_dot-zero": (
        lambda ctx: _boundary(ctx, "eta_dot", (1, 5), 0.0),
        ValueError,
        "eta_dot must be nonzero",
    ),
    **{
        f"charges_from_boundary-{bad}": (
            lambda ctx, v=v: _charges(ctx, [v]),
            ValueError,
            "points must be finite",
        )
        for bad, v in BAD_POINTS.items()
    },
    "charges_from_boundary-point-of-G": (
        lambda ctx: _charges(ctx, [0.9]), ValueError, r"alphas\[0\] .* inside hole 1"
    ),
    "charges_from_boundary-on-a-node": (
        lambda ctx: _charges(ctx, [ctx["pre"].map.bp.eta[1, 5]]),
        ValueError,
        r"alphas\[0\] .* inside hole 1",
    ),
    # a finite point far outside every hole: its winding products overflowed
    "charges_from_boundary-far-point": (
        lambda ctx: _charges(ctx, [1e200]), ValueError, r"alphas\[0\] .* inside hole 1"
    ),
    "charges_from_boundary-two-points": (
        lambda ctx: _charges(ctx, [0.0, 0.0]), ValueError, "one point per hole, 1, got 2"
    ),
    **{
        f"SlitSpec-a-{kind}": (
            lambda ctx, v=v: sc.SlitSpec(v, 2.0),
            sc.GeometryError,
            rf"^slit endpoint a must be a number, not an array of shape {shape}",
        )
        for kind, v, shape in (
            ("pair", np.array([1.0, 2.0]), r"\(2,\)"),
            ("list", [1.0], r"\(1,\)"),
            ("2d", np.array([[1.0]]), r"\(1, 1\)"),
        )
    },
    "EllipseParams-z-array": (
        lambda ctx: _ellipse(z=np.array([0.1])),
        sc.GeometryError,
        r"^ellipse z must be a number, not an array of shape \(1,\)",
    ),
    "as_array-ragged": (
        lambda ctx: as_array("eta", [[1, 2], [3]], complex),
        ValueError,
        "^eta must be a rectangular array of numbers",
    ),
    # two vertical slits 0.3 apart: the clearance rule allows r <= 0.3 / 4
    "initialize-facing-slits": (
        lambda ctx: initialize(
            sc.StripSlitDomain([sc.SlitSpec(x - 1j, x + 1j) for x in (-0.15, 0.15)]),
            sc.IterationConfig(n=64, r=0.2),
        ),
        sc.OverlapError,
        "choose a smaller aspect ratio r; facing parallel slits allow r <= 0.075$",
    ),
}


CIRCLE = np.exp(2j * np.pi * np.arange(64) / 64)


def _ellipse(**fields):
    return sc.EllipseParams(**{"z": 0.1, "a": 0.5, "theta": 0.0, "r": 0.2, **fields})


def _circle_boundary(**arrays):
    arrays = {"eta": CIRCLE[None], "eta_dot": 1j * CIRCLE[None], **arrays}
    return BoundaryParametrization(**arrays)


def _cauchy(**arrays):
    arrays = {"bnodes": CIRCLE, "bder": 1j * CIRCLE, "bvalues": CIRCLE, **arrays}
    return cauchy_eval(**arrays, points=0.3)


# site -> (call with the value, a valid value, its dtype, error type, start of
# the message); ``ctx`` holds the one-slit map and a kernel on CIRCLE
ARRAY_SITES = {
    "as_points": (
        lambda ctx, v: sc.psi(v), np.array([0.3, 0.2j]), complex, ValueError, "evaluation points"
    ),
    **{
        f"BoundaryParametrization.{name}": (
            lambda ctx, v, name=name: _circle_boundary(**{name: v}),
            CIRCLE[None], complex, ValueError, name,
        )
        for name in ("eta", "eta_dot")
    },
    "KernelSet.theta": (
        lambda ctx, v: KernelSet(ctx["pre"].map.bp, v), np.zeros(2), float, ValueError, "theta"
    ),
    "KernelSet.reangle": (
        lambda ctx, v: ctx["ks"].reangle(v), np.zeros(1), float, ValueError, "theta"
    ),
    "solve_bie.gamma": (
        lambda ctx, v: solve_bie(ctx["ks"], v),
        np.ones((1, 64)), float, ValueError, "right-hand data",
    ),
    "strip_gamma.theta": (
        lambda ctx, v: strip_gamma(ctx["pre"].map.bp, v), np.zeros(2), float, ValueError, "theta"
    ),
    **{
        f"cauchy_eval.{name}": (
            lambda ctx, v, name=name: _cauchy(**{name: v}), CIRCLE, complex, ValueError, name
        )
        for name in ("bnodes", "bder", "bvalues")
    },
    "winding_number.curve": (
        lambda ctx, v: winding_number(v, 0.0), CIRCLE, complex, ValueError, "curve"
    ),
    "trig_derivative": (
        lambda ctx, v: sc.trig_derivative(v), CIRCLE, complex, ValueError, "samples"
    ),
    **{
        f"SlitSpec.{name}": (
            lambda ctx, v, name=name: sc.SlitSpec(**{"a": 0.0, "b": 1.0, name: v}),
            0.5j, complex, sc.GeometryError, f"slit endpoint {name}",
        )
        for name in ("a", "b")
    },
    "EllipseParams.z": (lambda ctx, v: _ellipse(z=v), 0.1j, complex, sc.GeometryError, "ellipse z"),
    "EllipseParams.a": (lambda ctx, v: _ellipse(a=v), 0.5, float, sc.GeometryError, "major axis a"),
    "EllipseParams.theta": (
        lambda ctx, v: _ellipse(theta=v), 0.3, float, sc.GeometryError, "ellipse theta"
    ),
    "EllipseParams.r": (lambda ctx, v: _ellipse(r=v), 0.2, float, sc.GeometryError, "aspect ratio"),
}


def _spoil(good, kind):
    """``good`` turned into the bad value ``kind``: one entry of an array
    non-finite, or the whole value complex, bool or a string."""
    if kind == "complex":
        return good + 0.5j
    if kind == "bool":
        return np.ones(np.shape(good), dtype=bool)[()]
    if kind == "string":
        return np.asarray(good).astype(str)[()]
    bad = np.array(good, dtype=complex if np.iscomplexobj(good) else float)
    bad.reshape(-1)[-1] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
    return bad[()]


ARRAY_CASES = [
    pytest.param(site, kind, id=f"{site}-{kind}")
    for site, (_, _, dtype, _, _) in ARRAY_SITES.items()
    for kind in ("complex", "bool", "string", "nan", "inf", "-inf")
    if kind != "complex" or dtype is float
]


@pytest.fixture(scope="module")
def ctx(one_slit_pre):
    return {
        "pre": one_slit_pre,
        "ups": horizontal_slit_map(one_slit_pre),
        "circle": CIRCLE,
        "ks": KernelSet(_circle_boundary(), np.zeros(1)),
    }


@pytest.mark.parametrize("case", BAD_INPUT)
def test_bad_input_raises_without_warning(ctx, case):
    call, error, match = BAD_INPUT[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            call(ctx)


# finite points outside the curve's bounding box, whose products overflowed
FAR_POINTS = {"real": 1e200, "complex": 1e200 + 1e200j, "below": -1e200j, "just-right": 1.5}


@pytest.mark.parametrize("point", FAR_POINTS.values(), ids=FAR_POINTS)
def test_far_point_winds_zero_without_warning(point):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert winding_number(CIRCLE, point) == 0
        assert winding_number(CIRCLE, [0.3, point, -0.5j]).tolist() == [1, 0, 1]


@pytest.mark.parametrize("name", POINT_FUNCTIONS)
def test_point_shapes(ctx, name):
    call, point, kind = POINT_FUNCTIONS[name]
    scalar = call(ctx, point)
    assert type(scalar) is kind
    block = call(ctx, np.full((2, 3), point))
    assert block.shape == (2, 3)
    assert np.allclose(block, scalar, rtol=1e-13, atol=0.0)
    assert call(ctx, [point]).shape == (1,)


@pytest.mark.parametrize("site, kind", ARRAY_CASES)
def test_bad_array_names_it(ctx, site, kind):
    call, good, _, error, name = ARRAY_SITES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{name} must"):
            call(ctx, _spoil(good, kind))


@pytest.mark.parametrize("site", ARRAY_SITES)
def test_valid_array_accepted(ctx, site):
    call, good, _, _, _ = ARRAY_SITES[site]
    call(ctx, good)


def test_as_array_returns_its_input_of_that_dtype():
    x = np.linspace(0.0, 1.0, 5)
    assert as_array("x", x, float) is x
    assert as_array("x", CIRCLE, complex) is CIRCLE
    wide = as_array("x", x.astype(np.float32), complex)
    assert wide.dtype == complex and np.array_equal(wide, x.astype(np.float32))


def test_float32_slit_is_the_double_slit():
    # a float32 endpoint made the slit's centre and length single precision:
    # the capacity differed by 1.6e-8 relative
    ends = np.float32(-0.3), np.float32(0.7) + 0.1j
    single, double = sc.SlitSpec(*ends), sc.SlitSpec(*map(complex, ends))
    assert type(single.a) is complex and single == double
    cfg = sc.IterationConfig(n=128)
    single, double = (
        sc.capacity(sc.CondenserSpec(sc.StripSlitDomain([s])), cfg).cap for s in (single, double)
    )
    assert single == double
