"""Exception types shared across the toolkit.

Config/usage problems map to CLI exit code 2, everything else to 1.
"""

import functools
import json


class ResearchSpaceError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(ResearchSpaceError):
    """Invalid configuration: bad thresholds, inconsistent inputs, unknown ids."""


class ParseError(ResearchSpaceError):
    """Malformed input file."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        loc = ""
        if path is not None:
            loc = f"{path}"
            if line is not None:
                loc += f":{line}"
            loc = f" ({loc})"
        super().__init__(f"{message}{loc}")


def json_value(text, path, line):
    """json.loads of ``text``, or a ParseError naming ``path`` and ``line``."""
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer too long to convert
        raise ParseError(f"invalid JSON: {e}", path=path, line=line) from None
    except RecursionError:
        raise ParseError("invalid JSON: nesting too deep", path=path, line=line) from None


class TrainingError(ResearchSpaceError):
    """Embedding training cannot proceed (e.g. no trainable bags)."""


def utf8_input(loader):
    """Make ``loader`` raise ParseError naming its ``path`` argument when that
    file is not UTF-8 text, in place of a bare UnicodeDecodeError."""
    at = loader.__code__.co_varnames.index("path")

    @functools.wraps(loader)
    def wrapper(*args, **kwargs):
        try:
            return loader(*args, **kwargs)
        except UnicodeDecodeError as e:
            path = args[at] if at < len(args) else kwargs["path"]
            raise ParseError(f"file is not UTF-8 text ({e.reason})", path=path) from None

    return wrapper
