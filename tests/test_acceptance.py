"""Acceptance gate: every criterion runs at its pinned tolerance and prints
one pass/fail line."""

import itertools

import pytest

from bpre.acceptance import CRITERIA, EXTENDED, run_criterion, run_suite
from bpre.errors import ValidationError

LABELS = [label for label, _ in CRITERIA]


@pytest.mark.parametrize("label", LABELS)
def test_criterion(label):
    result = run_criterion(label)
    print(result.line)
    assert result.passed, result.line


@pytest.mark.parametrize("label", [label for label, _ in EXTENDED])
def test_extended_invariant(label):
    result = run_criterion(label)
    print(result.line)
    assert result.passed, result.line


def test_unknown_suite_rejected():
    with pytest.raises(ValidationError):
        run_suite("medium", emit=None)


def test_corrupted_closed_form_is_caught(monkeypatch):
    # a deliberately perturbed closed form must flip the criterion red
    import bpre.acceptance as acc

    real = acc.closed_form_log_survival
    monkeypatch.setattr(acc, "closed_form_log_survival", lambda env: real(env) + 1e-6)
    result = acc.criterion_1(acc.DEFAULT_SEED)
    assert not result.passed


def test_budget_overrun_fails(monkeypatch):
    # every clock reading is 100 s after the last, so C4's check appears to
    # take 100 s against its 1 s budget
    import bpre.acceptance as acc

    ticks = itertools.count(0.0, 100.0)
    monkeypatch.setattr(acc.time, "perf_counter", lambda: next(ticks))
    result = acc.criterion_4(acc.DEFAULT_SEED)
    assert result.seconds > result.budget_seconds
    assert not result.passed
    assert result.line.startswith("FAIL [C4]")


def test_fast_suite_summary():
    report = run_suite("fast", emit=None)
    assert report.passed
    assert "13/13" in report.summary
