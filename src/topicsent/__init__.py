"""Scoring and evaluation toolkit for topic-based sentiment classification
and quantification on 2-, 3- and 5-point scales."""

from .annotation import consolidate_labels
from .baselines import Averaging, constant_classifier, ml_quantifier
from .classification import table_metrics
from .errors import ScoringError
from .evaluate import (SUBTASKS, Mode, ScoreReport, SubtaskSpec, classification_report,
                       quantification_report)
from .ingestion import count_labels, dedup, join_labels, parse_labels, stats
from .model import Prevalence, Scale, class_fractions

__version__ = "0.1.0"
