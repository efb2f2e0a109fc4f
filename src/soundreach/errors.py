"""Exception types raised by model construction, file ingest, and solvers.

Two families exist: :class:`ModelError` covers everything wrong with the
*input* (bad probabilities, unparsable files, inconsistent configuration),
while :class:`SolverError` covers queries that are well-formed but cannot be
answered by the requested method (missing preconditions, resource limits).
The command line interface maps the first family to exit status 2 and the
second to exit status 3.
"""

__all__ = [
    "ModelError",
    "RowSumError",
    "DanglingTarget",
    "EmptyRowGroup",
    "NegativeProbability",
    "ParseError",
    "HeaderMismatch",
    "NonContiguousChoices",
    "UnknownLabelId",
    "MultipleInitStates",
    "MissingInit",
    "MalformedCsv",
    "ConfigError",
    "SolverError",
    "NotContracting",
    "RewardOnMec",
    "MissingRewardBounds",
    "IterationLimit",
]


class ModelError(Exception):
    """Invalid model data, unparsable input, or bad configuration."""


class RowSumError(ModelError):
    """A probability row deviates from 1 by more than the admitted tolerance."""


class DanglingTarget(ModelError):
    """A transition or reward refers to a state/choice that does not exist."""


class EmptyRowGroup(ModelError):
    """A state declares no choice at all."""


class NegativeProbability(ModelError):
    """A transition carries a probability outside (0, 1]."""


class ParseError(ModelError):
    """A model file does not follow the expected grammar."""


class HeaderMismatch(ParseError):
    """Declared state/choice/transition counts disagree with the file body."""


class NonContiguousChoices(ParseError):
    """Choice indices of a state do not form 0..k without gaps."""


class UnknownLabelId(ParseError):
    """A label is referenced that was never declared: an identifier in a
    state line of a label file, or a goal name the model does not carry."""


class MultipleInitStates(ParseError):
    """The ``init`` label marks more than one state."""


class MissingInit(ParseError):
    """The ``init`` label is absent or marks no state."""


class MalformedCsv(ModelError):
    """A statistics CSV is missing the expected header or columns."""


class ConfigError(ModelError):
    """Solver configuration is inconsistent (bad epsilon, flag combination, ...)."""


class SolverError(Exception):
    """The query is well-formed but the requested method cannot answer it."""


class NotContracting(SolverError):
    """The model keeps probability mass away from the target forever."""


class RewardOnMec(SolverError):
    """A reward query was posed on a model with an end component outside the goal."""


class MissingRewardBounds(SolverError):
    """Interval iteration on rewards needs user-supplied initial bounds."""


class IterationLimit(SolverError):
    """The iteration budget ran out before the convergence criterion held.

    The partially converged result (if any) is attached as ``partial``.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
