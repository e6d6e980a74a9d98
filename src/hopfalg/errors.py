"""Exception hierarchy and the shared verdict type."""
from dataclasses import dataclass, field


class HopfAlgError(Exception):
    pass


class InputError(HopfAlgError, ValueError):
    """Input that fails validation: a malformed ring, module, presentation
    or argument.  The command line reports it as an input error (exit 2),
    while any other ValueError is an internal error (exit 4)."""


class PresentationMismatch(HopfAlgError):
    pass


class IllegalExponent(HopfAlgError):
    pass


class InfiniteBasis(HopfAlgError):
    pass


class DegreeError(HopfAlgError):
    pass


class IntegralityFailure(HopfAlgError):
    pass


class SolveFailure(HopfAlgError):
    pass


class NotFreeOverA(HopfAlgError):
    pass


class UnsupportedBaseMap(InputError):
    """A base map outside the supported class: refused input, exit 2."""


class SearchBudgetExceeded(HopfAlgError):
    pass


class AxiomFailure(HopfAlgError):
    pass


class NotQuasiCoherent(HopfAlgError):
    pass


class NotACover(HopfAlgError):
    """The proposed family of ring maps is not faithfully flat: the unit of
    the would-be descent datum already fails to be injective."""


class ParseError(HopfAlgError):
    pass


@dataclass
class Verdict:
    """Pass/fail result carrying failure witnesses as human-readable strings."""

    ok: bool = True
    failures: list = field(default_factory=list)

    def fail(self, message):
        self.ok = False
        self.failures.append(message)

    def merge(self, other):
        if not other.ok:
            self.ok = False
            self.failures.extend(other.failures)

    def __bool__(self):
        return self.ok

    def summary(self):
        if self.ok:
            return "pass"
        return "FAIL: " + "; ".join(self.failures[:5])
