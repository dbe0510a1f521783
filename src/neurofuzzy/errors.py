"""Exception hierarchy shared by all neurofuzzy modules."""


class NeuroFuzzyError(Exception):
    """Base class for all errors raised by this package."""


# --- universe / membership construction ---

class EmptyRange(NeuroFuzzyError):
    pass


class OutOfRange(NeuroFuzzyError):
    """Crisp value lies outside the universe."""


class NegativeSupport(NeuroFuzzyError):
    pass


class DegenerateFuzzification(NeuroFuzzyError):
    """Fuzzification produced an all-zero membership vector."""


class UniverseMismatch(NeuroFuzzyError):
    pass


class ZeroVector(NeuroFuzzyError):
    pass


# --- operators ---

class OperandOutOfRange(NeuroFuzzyError):
    pass


# --- network ---

class UntrainedNetwork(NeuroFuzzyError):
    pass


class TargetOutOfRange(NeuroFuzzyError):
    pass


class CapacityExceeded(NeuroFuzzyError):
    pass


class MalformedPayload(NeuroFuzzyError):
    pass


class VersionMismatch(NeuroFuzzyError):
    pass


# --- crossbar ---

class ReadDisturbRisk(NeuroFuzzyError):
    """A read voltage at or above the device threshold could alter state."""


class DimensionMismatch(NeuroFuzzyError):
    pass


class WeightOutOfRange(NeuroFuzzyError):
    pass


# --- experiments ---

class DomainViolation(NeuroFuzzyError):
    pass


class UnknownDatasetId(NeuroFuzzyError):
    pass


class ConstantActual(NeuroFuzzyError):
    """FVU denominator is zero: the reference signal is constant."""


class LengthMismatch(NeuroFuzzyError):
    pass


class UnreadField(NeuroFuzzyError, ValueError):
    """A config field is set that its run never reads; .field names it."""

    def __init__(self, field: str, run: str):
        super().__init__(f"{run} does not read {field}")
        self.field = field


# --- cli ---

class ConfigError(NeuroFuzzyError):
    pass
