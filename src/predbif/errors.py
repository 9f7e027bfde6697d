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


class StepFailure(PredbifError):
    """The adaptive integrator stopped short of t_end: it hit the minimum
    step size or used up its ``max_steps`` step attempts (kernel status 1
    covers both)."""

