"""Per-check seconds are measured where each verdict is decided.

Under a fake clock that advances by 1 on every read, a report's check
seconds add up to the clock's advance over the report, each validity item
carries its own count, and a sub-report's unmeasured time goes to its
first item."""

import itertools
import time

import pytest

from pencil_forge import catalog as cat
from pencil_forge import operators as ops

VALIDITY = (
    "metric_symmetric", "connection_symmetric", "metric_compatible",
    "curvature_constant", "killing", "cyclic", "local_part_valid",
)


@pytest.fixture
def clock(monkeypatch):
    """Replaces time.perf_counter; returns the list of values it gave."""
    ticks = itertools.count()
    reads: list[float] = []

    def fake() -> float:
        reads.append(float(next(ticks)))
        return reads[-1]

    monkeypatch.setattr(time, "perf_counter", fake)
    return reads


def test_seconds_sum_to_the_clock_advance(clock):
    report = cat.verify_case(cat.builtin_case("g1"))
    assert report.passed
    assert report.seconds == clock[-1] - clock[0]


def test_validity_items_are_timed_separately(clock):
    report = cat.verify_case(cat.builtin_case("g1"))
    seconds = [report[name].seconds for name in VALIDITY]
    assert all(s >= 1 for s in seconds)
    assert len(set(seconds)) > 1


def test_sub_report_unmeasured_time_goes_to_its_first_item(clock):
    outer = ops.ValidationReport("demo")       # reads 0
    outer.add("a", True)                       # 1: a = 1
    time.perf_counter()                        # 2: work before the sub-report
    inner = ops.ValidationReport()             # 3
    inner.add("b", True)                       # 4: b = 1
    inner.add("c", False, "why")               # 5: c = 1
    outer.extend(inner)                        # 6: b gets 6 - 1 - 2 more
    assert [(c.name, c.status, c.seconds) for c in outer.checks] == [
        ("a", "pass", 1.0), ("b", "pass", 4.0), ("c", "fail", 1.0),
    ]
    assert outer.seconds == 6.0
    assert not outer.passed
    assert outer.failed() == (outer["c"],)


def test_raising_validator_yields_one_validity_error(clock, monkeypatch):
    def broken(op):
        raise RuntimeError("validator broke")

    monkeypatch.setattr(ops, "validate_nonlocal", broken)
    report = cat.verify_case(cat.builtin_case("g1"))
    validity = [c for c in report.checks if c.name == "validity"]
    assert [(c.status, c.witness) for c in validity] == [
        ("error", "RuntimeError: validator broke"),
    ]
    assert report["pencil_compatible"].passed
    assert report["recursion_reference"].passed
    assert report.seconds == clock[-1] - clock[0]


@pytest.mark.parametrize("name", ["g1", "astigmatism"])
def test_seconds_cover_the_wall_time(name):
    case = cat.builtin_case(name)
    start = time.perf_counter()
    report = cat.verify_case(case)
    wall = time.perf_counter() - start
    assert report.seconds >= 0.95 * wall
    assert report.seconds <= wall
