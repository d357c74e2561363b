"""Exception hierarchy shared by all pipeline phases."""


class TwoECError(Exception):
    """Base class for all library errors."""


class ParseError(TwoECError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotTwoEdgeConnected(TwoECError):
    """Input graph admits no 2-ECSS."""


class Infeasible(TwoECError):
    """No feasible solution exists (e.g. a vertex of degree < 2)."""


class BudgetExceeded(TwoECError):
    """A search exhausted its node-expansion budget without an answer."""


class PatchNotFound(TwoECError):
    """No patch within the proven size bound exists; upstream invariant broken."""


class Untypeable(TwoECError):
    """Edge set fits none of the six solution types w.r.t. a 3-cut."""


class NotCanonical(TwoECError):
    """Canonicalization terminated with outstanding violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"{len(self.violations)} canonical-form violation(s)")


class Stuck(TwoECError):
    """Bridge covering found no cost-non-increasing bridge-reducing move."""

    def __init__(self, diagnostics):
        self.diagnostics = diagnostics
        super().__init__("no admissible bridge-covering move found")


class StructuredViolation(TwoECError):
    """A glue-phase case proved the host graph was not structured.

    Carries the edge ids of a 2EC witness subgraph when one could be
    extracted, so callers may restart reduction on it with a contraction step.
    """

    def __init__(self, message, edges=None, justification=None):
        self.edges = frozenset(edges) if edges is not None else None
        self.justification = justification
        super().__init__(message)


class RejectionLimit(TwoECError):
    """Random generation failed to produce an instance within the retry cap."""
