"""Scoring and evaluation toolkit for topic-based sentiment classification
and quantification on 2-, 3- and 5-point scales."""

from .annotation import consolidate_labels
from .baselines import Averaging, constant_classifier, ml_quantifier, point_mass
from .classification import accuracy, avg_rec, class_f1, class_recall, f1_pn
from .errors import ScoringError
from .evaluate import (SUBTASKS, Mode, ScoreReport, SubtaskSpec, classification_report,
                       quantification_report)
from .ingestion import count_labels, dedup, label_rows, parse_labels, stats
from .model import ConfusionMatrix, Prevalence, Scale, class_fractions, join_rows
from .ordinal import mae_macro, mae_micro

__version__ = "0.1.0"
