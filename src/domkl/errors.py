"""Exception types shared across the package."""


class GraphSamplingError(RuntimeError):
    """Raised when rejection sampling fails to produce a connected graph.

    Carries the number of attempts made before giving up, also through
    the pickling that brings it back from a trial pool's worker.
    """

    def __init__(self, message, attempts):
        super().__init__(message)
        self.attempts = attempts

    def __reduce__(self):
        return type(self), (str(self), self.attempts)


class ConfigError(ValueError):
    """Raised for malformed experiment configuration files.

    Carries the offending key so command-line tooling can name it.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
