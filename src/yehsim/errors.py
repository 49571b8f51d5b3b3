"""The two errors of the yehsim package.

Every error the library raises on purpose is a YehError, whose message
starts with what went wrong (the field, where a config can reach it); the
CLI prints it and exits 2.  ConfigError marks a run configuration that
failed validation, which config.integrand_from_spec passes through
unwrapped while it names the other errors of the integrand it builds.
"""


class YehError(ValueError):
    """A library error: bad input or a computation that cannot proceed."""


class ConfigError(YehError):
    """A run configuration failed validation; the message names the field."""
