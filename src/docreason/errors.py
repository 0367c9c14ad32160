"""Exception types shared across the pipeline."""


class DocReasonError(Exception):
    """Base class for all library errors."""


class SchemaError(DocReasonError):
    """A corpus record is missing required fields or has wrong field types."""


class ValidationError(DocReasonError):
    """A corpus record is structurally valid but violates a value invariant."""


class DegenerateGeometry(ValidationError):
    """A page has zero width or height."""


class QuestionTooLong(ValidationError):
    """The question alone does not fit within max_len tokens."""


class EmptyInventory(ValidationError):
    """No Block node survived tokenization/truncation."""


class EmptySpan(DocReasonError):
    """A node's token span contains zero tokens."""


class EmptyGraph(DocReasonError):
    """A graph summary was requested over zero nodes."""


class IndexMismatch(DocReasonError):
    """A NodeSet or graph breaks the layout: ids 0..N-1, kinds and members in runs."""


class ShapeMismatch(DocReasonError):
    """Tensor shapes are incompatible for the requested operation."""


class NonFiniteLoss(DocReasonError):
    """The training loss evaluated to NaN or infinity: training diverged."""


class NoValidTokens(DocReasonError):
    """Span decoding was requested but every token is masked."""


class NoLeafCandidates(DocReasonError):
    """Tree decoding needs a leaf but no leaf candidates are available."""


class DivisionByZero(DocReasonError):
    """An expression tree divides by zero; the instance is scored wrong."""


class NonFiniteResult(DocReasonError):
    """An expression tree evaluates to infinity or NaN; the instance is
    scored wrong."""


class InconsistentComponents(DocReasonError):
    """Answer assembly received components inconsistent with the answer type."""


class GoldOverCap(ValidationError):
    """The gold node set alone exceeds the selection cap."""


class CheckpointMismatch(DocReasonError):
    """A checkpoint does not match the current model (dims or vocab)."""
