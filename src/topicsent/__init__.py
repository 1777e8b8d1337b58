"""Scoring and evaluation toolkit for topic-based sentiment classification
and quantification on 2-, 3- and 5-point scales.

Each public name loads its module the first time it is read (PEP 562), so
``import topicsent`` loads none of the package's modules."""

__version__ = "0.1.0"

_EXPORTS = {
    "annotation": ("consolidate_labels",),
    "baselines": ("Averaging", "constant_classifier", "ml_quantifier"),
    "classification": ("table_metrics",),
    "errors": ("ScoringError",),
    "evaluate": ("ScoreReport", "classification_report", "quantification_report"),
    "ingestion": ("count_labels", "join_labels", "parse_labels", "stats"),
    "model": ("SUBTASKS", "Mode", "Prevalence", "Scale", "SubtaskSpec", "class_fractions"),
    "neardup": ("dedup",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value
