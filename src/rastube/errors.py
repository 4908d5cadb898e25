"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, guarantee/feasibility failures with 3, runtime failures with 4.
"""

from __future__ import annotations


class RastubeError(Exception):
    """Base class for all package errors."""

    def __reduce__(self):
        # rebuilt from its message and fields without calling __init__, whose
        # arguments differ per subclass, so that an error pickled in a forked
        # child (``cli.in_child``) is raised again with its type and fields
        return _rebuilt, (type(self), self.args, self.__dict__)


def _rebuilt(cls, args, state):
    error = cls.__new__(cls, *args)
    error.__dict__.update(state)
    return error


class ConfigurationError(RastubeError):
    """Invalid scenario data or invalid arguments to a public operation."""

    def __init__(self, issues):
        # issues: list of (key_path, message) pairs, or a single string
        if isinstance(issues, str):
            issues = [("", issues)]
        self.issues = list(issues)
        lines = [f"{path}: {msg}" if path else msg for path, msg in self.issues]
        super().__init__("; ".join(lines))


class InfeasibleScenarioError(RastubeError):
    """The task admits no safe detour plan (or violates a scheduling assumption)."""

    def __init__(self, message, obstacle=None):
        self.obstacle = obstacle
        super().__init__(message)


class SynthesisError(RastubeError):
    """Corridor integration produced non-finite values."""

    def __init__(self, message, time=None):
        self.time = time
        super().__init__(message)


class TubeViolationError(RastubeError):
    """A state left the corridor interior; carries where and when."""

    def __init__(self, dim, value, lower, upper, time=None):
        self.dim = dim
        self.value = value
        self.lower = lower
        self.upper = upper
        self.time = time
        where = f" at t={time:.6g}" if time is not None else ""
        super().__init__(
            f"state component {dim} = {value:.6g} outside corridor "
            f"({lower:.6g}, {upper:.6g}){where}"
        )
