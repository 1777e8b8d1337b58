"""Exception hierarchy with machine-readable error codes."""

from __future__ import annotations


class ScoringError(Exception):
    """Base class for all validation and scoring errors."""

    code = "SCORING_ERROR"

    def __init__(self, message: str, *, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ScaleMismatch(ScoringError):
    code = "SCALE_MISMATCH"


class MissingPrediction(ScoringError):
    code = "MISSING_PREDICTION"

    def __init__(self, item_id: str | None, topic: str | None):
        where = item_id if item_id is not None else "<topic>"
        if topic is not None:
            where = f"{where} (topic {topic})"
        super().__init__(f"no prediction for gold item {where}")
        self.item_id = item_id
        self.topic = topic


class EmptyInput(ScoringError):
    code = "EMPTY_INPUT"


class NoTopics(ScoringError):
    code = "NO_TOPICS"


class TopicRequired(ScoringError):
    code = "TOPIC_REQUIRED"


class InvalidArgument(ScoringError):
    code = "INVALID_ARGUMENT"


class InvalidLabel(ScoringError):
    code = "INVALID_LABEL"


class DuplicateKey(ScoringError):
    code = "DUPLICATE_KEY"


class MalformedLine(ScoringError):
    code = "MALFORMED_LINE"


class TooFewAnnotators(ScoringError):
    code = "TOO_FEW_ANNOTATORS"


class EmptyText(ScoringError):
    code = "EMPTY_TEXT"
