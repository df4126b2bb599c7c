import pytest

from pmdkit.limits import SizeGuardError, check_qubits


def test_override_hint_when_the_variable_sets_the_cap(monkeypatch):
    monkeypatch.setenv("PMDKIT_MAX_QUBITS", "10")
    for limit in (None, 12):
        with pytest.raises(SizeGuardError) as info:
            check_qubits(11, "thing", limit=limit)
        assert str(info.value) == ("thing needs 11 qubits, above the limit of 10 "
                                   "(set PMDKIT_MAX_QUBITS to override)")


def test_no_override_hint_under_a_hard_limit(monkeypatch):
    # The variable can only lower a hard limit, so it is not offered.
    for env in ("30", "12"):
        monkeypatch.setenv("PMDKIT_MAX_QUBITS", env)
        with pytest.raises(SizeGuardError) as info:
            check_qubits(14, "build_pmd", limit=12)
        assert str(info.value) == "build_pmd needs 14 qubits, above the limit of 12"
    check_qubits(12, "build_pmd", limit=12)
