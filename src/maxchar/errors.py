"""Exception hierarchy shared across the library."""


class MaxcharError(Exception):
    """Base class for all library-specific failures."""


class SpecSchemaError(MaxcharError):
    """Raised when an input spec file is malformed.

    Carries an optional best-effort line number into the offending file so
    callers can emit line-precise diagnostics.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        loc = ""
        if path is not None:
            loc = str(path)
            if line is not None:
                loc += f":{line}"
            loc += ": "
        super().__init__(loc + message)


class WindowTooSmallError(MaxcharError):
    """Evaluation grid does not cover the support of the measure."""


class TruncationError(MaxcharError):
    """Too many evaluation nodes are truncation-limited to trust the curve."""


class ResolutionError(MaxcharError):
    """Spatial or radius resolution cannot resolve the requested clip level."""


class BudgetError(MaxcharError):
    """An input would take more nodes or radii than the fixed budgets
    allow, or levels outside the float range."""
