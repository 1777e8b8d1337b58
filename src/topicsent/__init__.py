"""Scoring and evaluation toolkit for topic-based sentiment classification
and quantification on 2-, 3- and 5-point scales."""

from .annotation import CrowdAnnotation, consolidate, consolidate_labels
from .baselines import Averaging, constant_classifier, ml_quantifier, point_mass
from .classification import accuracy, avg_rec, class_f1, class_recall, f1_pn
from .errors import ScoringError
from .evaluate import SUBTASKS, Mode, ScoreReport, SubtaskSpec, evaluate, macroaverage
from .ingestion import dedup, parse_dataset, stats, topic_filter
from .model import (
    ConfusionMatrix,
    Dataset,
    Prevalence,
    Scale,
    class_fractions,
    confusion_tables,
    topic_class_counts,
)
from .ordinal import mae_macro, mae_micro
from .quantification import ae, emd, kld, rae, smooth

__version__ = "0.1.0"
