"""Shared fixtures: small converged domains reused across test modules."""

import threading

import numpy as np
import pytest

import stripcap as sc


# The reference four-slit geometry used throughout the suite: two pairs of
# mirrored horizontal slits, mild enough that the outer iteration reaches
# its stopping tolerance quickly at moderate n.
FOUR_SLITS = [
    sc.SlitSpec(-0.9 - 0.3j, -0.3 - 0.3j),
    sc.SlitSpec(0.3 - 0.3j, 0.9 - 0.3j),
    sc.SlitSpec(-0.9 + 0.3j, -0.3 + 0.3j),
    sc.SlitSpec(0.3 + 0.3j, 0.9 + 0.3j),
]

# Mixed-orientation channel used by the flow tests.
CHANNEL_SLITS = [
    sc.SlitSpec(-2 - 0.7j, -1 - 0.2j),
    sc.SlitSpec(-0.5 + 0.4j, 0.5 + 0.7j),
    sc.SlitSpec(1 - 0.5j, 2 - 0.5j),
    sc.SlitSpec(-0.5 - 0.9j, 0.5 - 0.9j),
]


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that ends with a thread it started still alive: every
    stripcap call joins the threads it starts before it returns."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    assert not left, f"threads still alive after the test: {left}"


ACCEPTANCE_LINES = []


def record_criterion(num, desc, ok, detail=""):
    """One pass/fail line per acceptance criterion, echoed in the summary."""
    status = "PASS" if ok else "FAIL"
    tail = f" -- {detail}" if detail else ""
    ACCEPTANCE_LINES.append(f"[criterion {num:2d}] {status}: {desc}{tail}")
    assert ok, f"criterion {num} ({desc}){tail}"


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def one_slit_pre():
    """Converged preimage of the strip minus [-0.5i, 0.5i] at n=256."""
    dom = sc.StripSlitDomain([sc.SlitSpec(-0.5j, 0.5j)])
    pre = sc.iterate(dom, sc.IterationConfig(n=256, r=0.2, eps=1e-14))
    assert pre.converged
    return pre


@pytest.fixture(scope="session")
def four_slit_pre():
    """Converged preimage of the four-slit reference domain at n=256."""
    dom = sc.StripSlitDomain(FOUR_SLITS)
    pre = sc.iterate(dom, sc.IterationConfig(n=256, r=0.2, eps=1e-12))
    assert pre.converged
    return pre


@pytest.fixture(scope="session")
def channel_pre():
    """Converged preimage of the mixed-orientation channel at n=256."""
    dom = sc.StripSlitDomain(CHANNEL_SLITS)
    pre = sc.iterate(dom, sc.IterationConfig(n=256, r=0.2, eps=1e-11))
    assert pre.converged
    return pre


@pytest.fixture(scope="session")
def channel_128_pre():
    """The channel at n=128: too coarse for the walls far out, where points
    such as 6 + 1.55i fail the inverse map's outer-boundary test."""
    dom = sc.StripSlitDomain(CHANNEL_SLITS)
    pre = sc.iterate(dom, sc.IterationConfig(n=128, r=0.2, eps=1e-11))
    assert pre.converged
    return pre
