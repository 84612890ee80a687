"""Exception types shared across the package."""


class GraphSamplingError(RuntimeError):
    """Raised when rejection sampling fails to produce a connected graph.

    Carries the number of attempts made before giving up.
    """

    def __init__(self, message, attempts):
        super().__init__(message)
        self.attempts = attempts


class ProtocolError(RuntimeError):
    """Raised when a node receives exchanges inconsistent with the topology."""


class ConfigError(ValueError):
    """Raised for malformed experiment configuration files.

    Carries the offending key so command-line tooling can name it.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
