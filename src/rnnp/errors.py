"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class DegenerateClassError(InvalidInputError):
    """A class ended up with zero support examples under the labels in use."""


class EmbeddingFormatError(InvalidInputError):
    """An embeddings file cannot be parsed; the message carries the line number."""
