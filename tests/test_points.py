"""One convention for evaluation points, and bad boundary input rejected.

Every function that takes evaluation points goes through
``geometry.as_points``: a non-finite point raises ValueError, a scalar gives
a Python scalar, an array keeps its shape, and the point argument can be
passed by keyword.  Bad input raises a typed error and leaks no warning.
"""

import warnings

import numpy as np
import pytest

import stripcap as sc
from stripcap.capacity import charges_from_boundary
from stripcap.flow import complex_potential, horizontal_slit_map
from stripcap.geometry import BoundaryParametrization, winding_number
from stripcap.kernels import KernelSet
from stripcap.solver import cauchy_eval
from stripcap.stripmap import inverse_map

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
    "charges_from_boundary-two-points": (
        lambda ctx: _charges(ctx, [0.0, 0.0]), ValueError, "one point per hole, 1, got 2"
    ),
}


@pytest.fixture(scope="module")
def ctx(one_slit_pre):
    return {
        "pre": one_slit_pre,
        "ups": horizontal_slit_map(one_slit_pre),
        "circle": np.exp(2j * np.pi * np.arange(64) / 64),
    }


@pytest.mark.parametrize("case", BAD_INPUT)
def test_bad_input_raises_without_warning(ctx, case):
    call, error, match = BAD_INPUT[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            call(ctx)


@pytest.mark.parametrize("name", POINT_FUNCTIONS)
def test_point_shapes(ctx, name):
    call, point, kind = POINT_FUNCTIONS[name]
    scalar = call(ctx, point)
    assert type(scalar) is kind
    block = call(ctx, np.full((2, 3), point))
    assert block.shape == (2, 3)
    assert np.allclose(block, scalar, rtol=1e-13, atol=0.0)
    assert call(ctx, [point]).shape == (1,)

