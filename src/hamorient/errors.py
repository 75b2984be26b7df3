"""Error types shared across the workbench."""


class InputError(ValueError):
    """Malformed input: bad vertex ids, duplicate edges, unparsable pattern."""


class PreconditionError(ValueError):
    """A stated degree/size precondition does not hold for the given instance."""


class ResourceError(RuntimeError):
    """A bounded resource (connector pool, retry budget) ran out mid-operation."""


class HypothesisError(ValueError):
    """Cleanup hypotheses failed; carries (clause, detail) diagnostics."""

    def __init__(self, message: str, failures: tuple[tuple[str, str], ...]):
        super().__init__(message)
        self.failures = failures
