import pytest

from nearindep.limits import Limits, effective_limits


def test_caps_follow_the_variable(monkeypatch):
    monkeypatch.setenv("SIGMA_MAX_N", "5")
    assert effective_limits().trees_max_n == 5
    assert effective_limits().graphs_max_n == 5
    monkeypatch.setenv("SIGMA_MAX_N", "7")
    assert effective_limits().trees_max_n == 7
    assert effective_limits().graphs_max_n == 7
    monkeypatch.delenv("SIGMA_MAX_N")
    assert effective_limits() == Limits()
    monkeypatch.setenv("SIGMA_MAX_N", "5")
    assert effective_limits().trees_max_n == 5


def test_invalid_value_raises_on_every_call(monkeypatch):
    monkeypatch.setenv("SIGMA_MAX_N", "abc")
    for _ in range(3):
        with pytest.raises(ValueError, match="SIGMA_MAX_N"):
            effective_limits()
    monkeypatch.setenv("SIGMA_MAX_N", "6")
    assert effective_limits().trees_max_n == 6
    monkeypatch.setenv("SIGMA_MAX_N", "abc")
    with pytest.raises(ValueError, match="SIGMA_MAX_N"):
        effective_limits()
