import math

import numpy as np
import pytest

_ACCEPTANCE_LINES = []


def field_catalog() -> dict:
    """Named closed-form fields used by numerics-hygiene tests: ``(arity,
    fn, grad)``, the value and the gradient of a 1-D array."""
    return {
        "sin": (1, lambda p: math.sin(p[0]), lambda p: np.array([math.cos(p[0])])),
        "cos": (1, lambda p: math.cos(p[0]), lambda p: np.array([-math.sin(p[0])])),
        "gauss": (1, lambda p: math.exp(-p[0] ** 2), lambda p: np.array([-2 * p[0] * math.exp(-p[0] ** 2)])),
        "sin_sum": (
            2, lambda p: math.sin(p[0]) + math.cos(p[1]), lambda p: np.array([math.cos(p[0]), -math.sin(p[1])])
        ),
    }


@pytest.fixture
def acceptance():
    """Collects one PASS/FAIL line per acceptance criterion; the lines are
    echoed in the terminal summary so they survive output capture."""

    def record(num: int, desc: str, ok: bool) -> None:
        _ACCEPTANCE_LINES.append(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")

    return record


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
