"""The package's own exception type; all else raises builtins."""


class ConfigError(ValueError):
    """Raised for malformed experiment configuration files.

    The command line prints the message, which names the offending key,
    file or INI path; ``key`` holds the key for callers that check it.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
