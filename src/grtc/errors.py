"""Exception types shared across the package."""


class GrtcError(Exception):
    """Base class for all errors raised by this package."""


class UnknownWorker(GrtcError):
    pass


class UnknownGroup(GrtcError):
    pass


class ForbiddenMove(GrtcError):
    """Move that would place a just-performed worker into the next current group."""


class StallError(GrtcError):
    """No valid next state can be constructed from the pending changes."""


class InconsistentEvent(GrtcError):
    """Arrival of a present worker, or departure of an absent one."""


class InvalidPair(GrtcError):
    pass


class InvalidState(GrtcError):
    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


class CorruptRecord(GrtcError):
    pass


class ConfigError(GrtcError):
    pass


class TraceError(GrtcError):
    """Trace file problem; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParseError(TraceError):
    pass


class OrderError(TraceError):
    pass


class ConsistencyError(TraceError):
    pass
