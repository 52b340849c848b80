"""Exception types raised across the package, and the value-kind rules
that every reader of outside input applies (_integer, _real, _boolean).

Every error subclasses SparselinkError plus the closest builtin category,
so callers can catch either the package base or the usual builtin. Each
leaf class also falls in one category the command line maps to its exit
code (cli.main): InputError (4, bad input: files, flags, documents,
dimensions, or a start that breaks a precondition) or SolverFailure (5, a
numerical solver gave up). InfeasibleOutcome (2) and PatternNotStabilizable
(3) are their own categories.
"""
import numbers


class SparselinkError(Exception):
    """Base class for all package errors."""


class InputError(SparselinkError):
    """The input breaks a rule or precondition (command-line exit code 4)."""


class SolverFailure(SparselinkError):
    """A numerical solver gave up (command-line exit code 5)."""


class DimensionMismatch(InputError, ValueError):
    """Matrix or partition dimensions are inconsistent."""


class NotHurwitz(InputError, ValueError):
    """A matrix required to be Hurwitz has an eigenvalue with Re >= -tol."""


class SingularSolve(SolverFailure, RuntimeError):
    """A linear solve was numerically singular."""


class NotStabilizing(InputError, ValueError):
    """A gain required to be stabilizing is not."""


class RiccatiFailure(SolverFailure, RuntimeError):
    """The Riccati solve failed, or its gain does not stabilize the plant."""


class LineSearchFailure(SolverFailure, RuntimeError):
    """Backtracking could not find an acceptable step."""


class LostStabilizability(SolverFailure, RuntimeError):
    """Every trial step of a line search left the stabilizing set."""


class MaxIterations(SolverFailure, RuntimeError):
    """An iteration cap was reached before the convergence test passed."""


class PatternNotStabilizable(SparselinkError, RuntimeError):
    """No stabilizing gain exists (or was found) for a sparsity pattern."""


class EmptySweep(InputError, ValueError):
    """A sweep with no entries was given where at least one is required."""


class InvalidAssumption(InputError, ValueError):
    """An algorithm precondition (e.g. uniform block sizes) does not hold."""


class InfeasibleOutcome(SparselinkError, ValueError):
    """A rerouting outcome marked infeasible was used where a feasible one is required."""


class IndexOutOfRange(InputError, IndexError):
    """A priority or block index is outside the valid range."""


class UnknownFormat(InputError, ValueError):
    """An unsupported output or input format name was requested."""


def _integer(value, name: str) -> int:
    """value as an int; a bool, a float or a string is rejected, not converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidAssumption(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """value as a float; a bool or a non-number is rejected, not converted,
    and so is an integer too large for a double. Finiteness and range are
    the caller's rule."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidAssumption(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise InvalidAssumption(f"{name} must fit a double, got a number too large for one") from exc


def _boolean(value, name: str) -> bool:
    """value, which must be a bool: a number or a string is rejected."""
    if not isinstance(value, bool):
        raise InvalidAssumption(f"{name} must be true or false, got {value!r}")
    return value
