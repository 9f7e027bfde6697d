"""Exception hierarchy shared by all analysis modules."""


class PredbifError(Exception):
    """Base class for all toolkit errors."""


class ParameterOutOfRange(PredbifError):
    """A model parameter violates its admissibility constraint."""


class DomainError(PredbifError):
    """An operation was evaluated outside its mathematical domain."""


class NotAnEquilibrium(PredbifError):
    """A point handed to an equilibrium-only operation is not an equilibrium."""


class DegenerateResolvent(PredbifError):
    """Ferrari's resolvent is degenerate (Q2 ~ 0); use the biquadratic path."""


class NoConvergence(PredbifError):
    """An iterative refinement failed to converge."""


class NoHopf(PredbifError):
    """No self-consistent Hopf point exists in the searched interval."""


class BranchLost(PredbifError):
    """The tracked interior-equilibrium branch disappeared mid-interval."""

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class NoCandidate(PredbifError):
    """No double-zero candidate abscissa exists for these parameters."""


class SingularSolve(PredbifError):
    """The linear system for the critical parameter pair is singular."""


class DegenerateBT(PredbifError):
    """A Bogdanov-Takens nondegeneracy condition failed."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class NotPresent(PredbifError):
    """The requested equilibrium does not exist for these parameters."""


class StepFailure(PredbifError):
    """The adaptive integrator hit the minimum step size."""


class PrintedFormulaMismatch(UserWarning):
    """A transcribed closed-form coefficient disagrees with its independent
    derivation (numerically differentiated field or cleared-denominator
    expansion) beyond tolerance; the derived value is used."""
