"""Error taxonomy shared across the package.

Each error carries a ``category`` used by the CLI to pick its exit code:
input -> 2, config -> 3, numerical -> 4, io -> 5.
"""


class TiwlabError(Exception):
    category = "input"


class InputError(TiwlabError):
    """Bad argument values: dimension mismatch, out-of-range time, empty sets."""

    category = "input"


class ConfigError(TiwlabError):
    """Malformed or invalid experiment configuration."""

    category = "config"


class NumericalError(TiwlabError):
    """Non-finite values, divergent training, singular times, coarse quadrature."""

    category = "numerical"


class IoError(TiwlabError):
    """Unreadable/unwritable files, corrupt checkpoints."""

    category = "io"


class ContractError(TiwlabError):
    """Internal API misuse, e.g. a gradient cache fed to the wrong network."""

    category = "input"


EXIT_CODES = {"input": 2, "config": 3, "numerical": 4, "io": 5}
