"""One gate for scalar settings.

Every scalar setting goes through ``geometry.as_int`` or
``geometry.as_real``: a bool, a string, a non-finite or an out-of-range
value raises a ValueError naming the field (a GeometryError naming the slit
for a problem file's coordinates), and a numpy scalar of any width is
accepted and used as a double.
"""

import numpy as np
import pytest

import stripcap as sc
from stripcap.capacity import study_samples
from stripcap.flow import GridSpec, horizontal_slit_map, stream_grid
from stripcap.geometry import as_int, as_real

CFG = sc.IterationConfig(n=64)
GRID = dict(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=5, ny=5)


def _study(family, **keys):
    return study_samples({"family": family, **keys}, CFG)


def _slit(value):
    return sc.StripSlitDomain.from_dict({"slits": [{"a": [-0.5, value], "b": [0.5, 0.0]}]})


# site -> (call with the value, error type, message pattern, a valid numpy
# value, an out-of-range value or None where every finite value is valid);
# ``ctx`` holds the one-slit map and its flow
SETTINGS = {
    "IterationConfig.n": (
        lambda ctx, v: sc.IterationConfig(n=v), ValueError, "^n must be", np.int64(64), 48
    ),
    "IterationConfig.max_iter": (
        lambda ctx, v: sc.IterationConfig(max_iter=v),
        ValueError, "^max_iter must be", np.int32(5), 0,
    ),
    "IterationConfig.r": (
        lambda ctx, v: sc.IterationConfig(r=v), ValueError, "^r must be", np.float32(0.25), 1.5
    ),
    "IterationConfig.eps": (
        lambda ctx, v: sc.IterationConfig(eps=v),
        ValueError, "^eps must be", np.float32(1e-6), 0.0,
    ),
    **{
        f"GridSpec.{bound}": (
            lambda ctx, v, bound=bound: GridSpec(**{**GRID, bound: v}),
            ValueError, f"grid bound {bound} must be", np.float32(GRID[bound]), None,
        )
        for bound in ("x_min", "x_max", "y_min", "y_max")
    },
    **{
        f"GridSpec.{count}": (
            lambda ctx, v, count=count: GridSpec(**{**GRID, count: v}),
            ValueError, f"^{count} must be", np.int64(3), 1,
        )
        for count in ("nx", "ny")
    },
    "stream_grid.exclusion": (
        lambda ctx, v: stream_grid(ctx["pre"], ctx["ups"], GridSpec(**GRID), exclusion=v),
        ValueError, "^exclusion must be", np.float32(0.02), -0.1,
    ),
    "CondenserSpec.delta": (
        lambda ctx, v: sc.CondenserSpec(ctx["two_slits"], (1.0, v)),
        ValueError, r"^potential level delta\[1\] must be", np.float32(0.5), None,
    ),
    "exact_cap_vertical": (
        lambda ctx, v: sc.exact_cap_vertical(v),
        ValueError, "^vertical slit half-length must be", np.float32(0.5), 2.0,
    ),
    "exact_cap_horizontal": (
        lambda ctx, v: sc.exact_cap_horizontal(v),
        ValueError, "^horizontal slit half-length must be", np.float32(0.5), 701.0,
    ),
    "study.values": (
        lambda ctx, v: _study("two_vertical", values=[1.0, v]),
        ValueError, r"^study\.values\[1\] must be", np.float32(0.5), None,
    ),
    "study.m": (
        lambda ctx, v: _study("random_horizontal", m=v, count=1),
        ValueError, r"^study\.m must be", np.int64(3), 0,
    ),
    "study.count": (
        lambda ctx, v: _study("random_horizontal", count=v, m=2),
        ValueError, r"^study\.count must be", np.int64(1), -1,
    ),
    "study.seed": (
        lambda ctx, v: _study("random_horizontal", seed=v, count=1, m=2),
        ValueError, r"^study\.seed must be", np.int64(4), -1,
    ),
    "study.box_height": (
        lambda ctx, v: _study("random_horizontal", box_height=v, count=1, m=2),
        ValueError, r"^study\.box_height must be", np.float32(0.5), -0.5,
    ),
    "StripSlitDomain.from_dict": (
        lambda ctx, v: _slit(v), sc.GeometryError, r"^slits\[0\] must be", np.float32(0.25), None
    ),
}

BAD_VALUES = {"bool": True, "string": "1", "nan": np.nan, "inf": np.inf, "-inf": -np.inf}

BAD_CASES = [
    pytest.param(site, value, id=f"{site}-{kind}")
    for site, (_, _, _, _, out_of_range) in SETTINGS.items()
    for kind, value in [*BAD_VALUES.items(), ("out-of-range", out_of_range)]
    if value is not None
]


@pytest.fixture(scope="module")
def ctx(one_slit_pre):
    return {
        "pre": one_slit_pre,
        "ups": horizontal_slit_map(one_slit_pre),
        "two_slits": sc.StripSlitDomain([sc.SlitSpec(-0.5, 0.5), sc.SlitSpec(1.5, 2.5)]),
    }


@pytest.mark.parametrize("site, value", BAD_CASES)
def test_bad_setting_names_its_field(ctx, site, value):
    call, error, match, _, _ = SETTINGS[site]
    with pytest.raises(error, match=match):
        call(ctx, value)


@pytest.mark.parametrize("site", SETTINGS)
def test_numpy_scalar_accepted(ctx, site):
    call, _, _, good, _ = SETTINGS[site]
    call(ctx, good)


def test_gates_return_python_numbers():
    assert type(as_int("k", np.int8(3), 0)) is int
    x = as_real("x", np.float32(0.1))
    assert type(x) is float and x == float(np.float32(0.1))
    cfg = sc.IterationConfig(n=np.int64(64), r=np.float32(0.25), max_iter=np.int16(5))
    assert [type(v) for v in (cfg.n, cfg.r, cfg.eps, cfg.max_iter)] == [int, float, float, int]
    grid = GridSpec(np.float32(-1), 1, np.float16(-1), 1.0, np.int64(3), 3)
    assert {type(v) for v in vars(grid).values()} == {float, int}


def test_exact_formulas_take_float32_as_double():
    # the AGM's stopping test is out of reach of float32 arithmetic: before
    # the gate these calls never returned
    assert sc.exact_cap_vertical(np.float32(0.5)) == 3.053400295538072
    assert sc.exact_cap_horizontal(np.float32(0.5)) == sc.exact_cap_horizontal(0.5)
    assert sc.exact_cap_vertical(np.float16(0.5)) == sc.exact_cap_vertical(0.5)


def test_interval_named_in_message():
    with pytest.raises(ValueError, match=r"^r must be in \(0, 1\], got 1.5$"):
        sc.IterationConfig(r=1.5)
    with pytest.raises(ValueError, match=r"^exclusion must be finite and >= 0, got 'a'$"):
        as_real("exclusion", "a", 0.0)
    with pytest.raises(ValueError, match=r"^delta must be a finite number, got True$"):
        as_real("delta", True)
    with pytest.raises(ValueError, match=r"^n must be a power of two >= 8, got 48$"):
        sc.IterationConfig(n=48)


REAL_SITES = [site for site, (*_, good, _) in SETTINGS.items() if isinstance(good, np.floating)]


@pytest.mark.parametrize("site", REAL_SITES)
@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["big-int", "-big-int"])
def test_int_beyond_the_doubles_names_its_field(ctx, site, value):
    call, error, match, _, _ = SETTINGS[site]
    with pytest.raises(error, match=match):
        call(ctx, value)


@pytest.mark.parametrize("delta", [5, 2.0, "12", [[1.0, 2.0]]], ids=["int", "float", "str", "2-D"])
def test_delta_not_one_dimensional_names_delta(ctx, delta):
    with pytest.raises(ValueError, match=r"^delta must be a sequence of potential levels"):
        sc.CondenserSpec(ctx["two_slits"], delta)
