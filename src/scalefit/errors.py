"""Exception hierarchy shared across the package."""


class ScalefitError(Exception):
    """Base class for all scalefit errors."""


class ConfigurationError(ScalefitError):
    """A job configuration, VM shape, pricing model, or bounds value is invalid."""


class DegenerateGradientError(ScalefitError):
    """The aggregated gradient norm is exactly zero; the noise ratio is undefined."""


class DegenerateFitError(ScalefitError):
    """The fitting data lacks variation along a required axis."""


class ModelOutOfDomainError(ScalefitError):
    """A fitted model produced a non-positive noise, epoch, or iteration-time value."""


class EmptyInputError(ScalefitError):
    """An operation that requires at least one point received none."""


class SearchFailedError(ScalefitError):
    """No candidate configuration could be profiled or selected."""


class ModelNotFoundError(ScalefitError):
    """No stored model matches the requested fingerprint."""


class CorruptDocumentError(ScalefitError):
    """A stored model document does not conform to the expected schema."""


class TraceParseError(ScalefitError):
    """A trace file could not be parsed.

    Carries the offending file and line number so the CLI can point at them.
    """

    def __init__(self, path: str, line: int, reason: str) -> None:
        super().__init__(f"{path}:{line}: {reason}")
        self.path = path
        self.line = line
        self.reason = reason


class ScenarioError(ScalefitError):
    """A scenario document failed validation.

    Carries the dotted field path of the offending value.
    """

    def __init__(self, field_path: str, reason: str) -> None:
        super().__init__(f"{field_path}: {reason}")
        self.field_path = field_path
        self.reason = reason
