"""Global size guards for dense simulation.

The toolkit refuses to materialize statevectors or sweeps beyond a desk
scale qubit budget.  `PMDKIT_MAX_QUBITS` overrides the default of 14.
A width is read off the size it indexes (`index_bits`), never passed
beside it.
"""

import os

DEFAULT_MAX_QUBITS = 14

# Exhaustive sweeps abort above this many inner iterations and ask for
# sampling mode instead.
SWEEP_GUARD = 10**8


class SizeGuardError(RuntimeError):
    """Raised when a request exceeds the configured desk-scale budget."""


def max_qubits() -> int:
    raw = os.environ.get("PMDKIT_MAX_QUBITS")
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"PMDKIT_MAX_QUBITS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"PMDKIT_MAX_QUBITS must be positive, got {value}")
    return value


def check_qubits(n: int, what: str, limit: int | None = None) -> None:
    """Refuse n qubits above `max_qubits()` or the hard `limit`; the
    variable can only lower a hard limit, so only its cap names it."""
    cap, hint = max_qubits(), " (set PMDKIT_MAX_QUBITS to override)"
    if limit is not None and limit <= cap:
        cap, hint = limit, ""
    if n > cap:
        raise SizeGuardError(f"{what} needs {n} qubits, above the limit of {cap}{hint}")


def index_bits(size: int, what: str) -> int:
    """The m with size == 2^m: the qubits of a dense array's rows, or the
    bits of a table's index; a ValueError naming `what` and the size
    otherwise."""
    m = size.bit_length() - 1
    if size < 1 or 1 << m != size:
        raise ValueError(f"{what} dimension {size} is not a power of two")
    return m
