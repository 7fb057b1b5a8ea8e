import importlib.util
from pathlib import Path

import pytest

from flatcheck.chained import build_chart, find_output_pair
from flatcheck.triangular import drift_feedback, extract_triangular

import systems

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


@pytest.fixture(scope="session")
def bench_systems():
    """bench/systems.py: the benchmark's spec text generators."""
    path = SPEC_DIR.parent / "bench" / "systems.py"
    loader = importlib.util.spec_from_file_location("bench_systems", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def each_point(points):
    """The rows of a point set, each as a one-row set of its own, for
    references that evaluate point by point."""
    return [points[[i]] for i in range(len(points))]


def realize(spec, chart_exprs=None, degree=2):
    """Full construction pipeline, shared by fixtures and tests."""
    if chart_exprs is not None:
        chart, fb = build_chart(chart_exprs, spec)
    else:
        chart, fb = find_output_pair(spec, degree=degree)
    fb = drift_feedback(spec, chart, fb)
    return extract_triangular(spec, chart, fb)


@pytest.fixture(scope="session")
def example1_spec():
    return systems.example1()


@pytest.fixture(scope="session")
def motor_spec():
    return systems.motor()


@pytest.fixture(scope="session")
def chained4_spec():
    return systems.chained(4)


@pytest.fixture(scope="session")
def example1_real(example1_spec):
    return realize(example1_spec, systems.example1_chart(example1_spec))


@pytest.fixture(scope="session")
def motor_real(motor_spec):
    return realize(motor_spec)


@pytest.fixture(scope="session")
def chained4_real(chained4_spec):
    return realize(chained4_spec)
