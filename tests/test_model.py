import copy
import io
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    class_counts,
    constant_predictions,
    join,
    label_text,
    parsed_rows,
    reference_class_counts,
    reference_join,
    rows_from_counts,
    spec_for,
)
from topicsent.errors import (
    DuplicateKey,
    EmptyInput,
    InvalidLabel,
    MalformedLine,
    MissingPrediction,
)
from topicsent.evaluate import SUBTASKS
from topicsent.ingestion import normalized_prevalence, parse_labels
from topicsent.model import (
    ConfusionMatrix,
    Prevalence,
    Scale,
    ascii_number,
    class_fractions,
    join_rows,
)


class TestScale:
    def test_class_orders(self):
        assert Scale.TWO_POINT.classes == (-1, 1)
        assert Scale.THREE_POINT.classes == (-1, 0, 1)
        assert Scale.FIVE_POINT.classes == (-2, -1, 0, 1, 2)

    @pytest.mark.parametrize(
        "raw,expected",
        [("positive", 1), ("NEGATIVE", -1), ("Neutral", 0), ("-2", -2),
         ("highlypositive", 2), ("HighlyNegative", -2), ("+1", 1)],
    )
    def test_parse_label_surface_forms(self, raw, expected):
        assert Scale.FIVE_POINT.parse_label(raw) == expected

    def test_parse_label_rejects_out_of_scale(self):
        with pytest.raises(InvalidLabel):
            Scale.TWO_POINT.parse_label("neutral")
        with pytest.raises(InvalidLabel):
            Scale.FIVE_POINT.parse_label("-3")
        with pytest.raises(InvalidLabel):
            Scale.THREE_POINT.parse_label("great")

    @pytest.mark.parametrize("scale", list(Scale))
    def test_parse_label_names_and_integers_agree(self, scale):
        for c in scale.classes:
            name = scale.class_name(c)
            forms = [str(c), f" {c} ", name, name.lower(), f" {name.title()}\t"]
            assert [scale.parse_label(raw) for raw in forms] == [c] * len(forms)

    @pytest.mark.parametrize(
        "scale,raw,message",
        [
            (Scale.THREE_POINT, "great", "line 7: unrecognized label 'great'"),
            (Scale.FIVE_POINT, "", "line 7: unrecognized label ''"),
            (Scale.TWO_POINT, "neutral", "line 7: label 'neutral' invalid on scale TWO_POINT"),
            (Scale.THREE_POINT, " 2 ", "line 7: label ' 2 ' invalid on scale THREE_POINT"),
            (Scale.THREE_POINT, "HighlyPositive",
             "line 7: label 'HighlyPositive' invalid on scale THREE_POINT"),
        ],
    )
    def test_parse_label_errors(self, scale, raw, message):
        with pytest.raises(InvalidLabel) as exc:
            scale.parse_label(raw, line=7)
        assert str(exc.value) == message and exc.value.line == 7

    @pytest.mark.parametrize("raw", ["0_1", "1_0", "\u0661", "-\u0661", "\uff11", "pos\u0131tive"])
    def test_parse_label_accepts_only_ascii_forms(self, raw):
        # int() reads the first five and str.upper() maps a dotless i to I
        with pytest.raises(InvalidLabel, match="^line 3: unrecognized label") as exc:
            Scale.FIVE_POINT.parse_label(raw, line=3)
        assert exc.value.line == 3

    def test_ascii_number(self):
        assert ascii_number(int, " +1 ") == 1 and ascii_number(float, "2.5e-1") == 0.25
        for text in ("0_1", "0.2_5", "\u0661", "\u0660.5", "\u00a01", "1\u2003"):
            with pytest.raises(ValueError):
                ascii_number(float, text)


def labels(text, subtask="B"):
    """The row_key -> label map of a label file."""
    return parse_labels(io.StringIO(text), SUBTASKS[subtask])


class TestDataset:
    """The row rules of label data, which the parser enforces on every file."""

    def test_duplicate_key_is_hard_error(self):
        with pytest.raises(DuplicateKey):
            labels("t1\tx\t1\nt1\tx\t-1\n")

    def test_same_id_different_topic_allowed(self):
        assert list(labels("t1\tx\t1\nt1\ty\t-1\n")) == ["t1\tx", "t1\ty"]

    def test_mixed_topic_presence_rejected(self):
        with pytest.raises(MalformedLine, match="subtask B requires a topic"):
            labels("t1\tx\t1\nt2\tNA\t-1\n", "B")
        with pytest.raises(MalformedLine, match="subtask A expects topic NA"):
            labels("t1\tNA\t1\nt2\tx\t-1\n", "A")

    def test_label_outside_scale_rejected(self):
        with pytest.raises(InvalidLabel):
            labels("t1\tx\t0\n")

    def test_empty_id_rejected(self):
        with pytest.raises(MalformedLine, match="line 2: empty id field"):
            labels("t1\tx\t1\n\tx\t-1\n")

    @pytest.mark.parametrize("row", [("x\ty", "a", 1), ("x", "a\tb", 1), ("x", "NA", 1)])
    def test_fields_no_file_can_hold_rejected(self, row):
        # a tab ends a field, and the topic NA stands for no topic, so no
        # line gives such an (id, topic) and row_key stays injective
        error = MalformedLine if row[1] == "NA" else InvalidLabel
        with pytest.raises(error):
            labels("\t".join(map(str, row)) + "\n")

    def test_na_topic_cannot_match_a_topicless_prediction(self):
        # gold with the topic NA is topicless, which topic-based subtasks reject
        with pytest.raises(MalformedLine, match="line 1: subtask B requires a topic"):
            labels("x\tNA\t1\n", "B")
        tables, ignored = join(Scale.THREE_POINT, [("x", None, 1)], [("x", None, 1)])
        assert list(tables) == [None] and ignored == 0

    def test_labels_keyed_in_input_order(self):
        assert list(labels("t2\tx\t1\nt1\tx\t-1\n").items()) == [("t2\tx", 1), ("t1\tx", -1)]


class TestAlign:
    """Joining predictions onto gold by row key into confusion matrices."""

    def test_direct_pairing(self):
        gold = {"t1\tNA": 1, "t2\tNA": -1}
        pred = [(1, "t1\tNA", None, 1), (2, "t2\tNA", None, 1)]
        tables, ignored = join_rows(Scale.TWO_POINT, gold, pred)
        assert list(tables) == [None] and ignored == 0
        # rows are gold -1, +1; columns predicted -1, +1
        assert tables[None].counts == ((0, 1), (0, 1))

    def test_missing_prediction(self):
        with pytest.raises(MissingPrediction):
            join_rows(Scale.TWO_POINT, {"t1\tNA": 1}, [])

    def test_extra_predictions_ignored_with_count(self):
        pred = [(1, "t1\tNA", None, 1), (2, "t9\tNA", None, -1)]
        tables, ignored = join_rows(Scale.TWO_POINT, {"t1\tNA": 1}, pred)
        assert tables[None].total == 1
        assert ignored == 1

    def test_streamed_rows(self):
        """join_rows takes gold over and catches a repeated prediction key,
        in gold or not, at its row's line."""
        gold = {"t1\ta": 1, "t2\ta": -1, "t3\ta": 1}
        rows_in = [(1, "t3\ta", "a", 1), (2, "t9\ta", "a", 1), (3, "t1\ta", "a", -1)]
        with pytest.raises(MissingPrediction, match=r"^no prediction for gold item t2 \(topic a\)$"):
            join_rows(Scale.TWO_POINT, dict(gold), rows_in)
        with pytest.raises(DuplicateKey, match=r"^line 5: duplicate \(id, topic\) pair \('t3', 'a'\)$"):
            join_rows(Scale.TWO_POINT, dict(gold), rows_in + [(5, "t3\ta", "a", 1)])
        with pytest.raises(DuplicateKey, match="line 6"):
            join_rows(Scale.TWO_POINT, dict(gold), rows_in + [(6, "t9\ta", "a", -1)])
        tables, ignored = join_rows(Scale.TWO_POINT, gold, rows_in + [(7, "t2\ta", "a", 1)])
        assert tables["a"].counts == ((0, 1), (1, 1)) and ignored == 1
        assert set(gold.values()) == {None}

    def test_scale_mismatch(self):
        # predictions are read on the gold scale, so a label off it fails at its line
        with pytest.raises(InvalidLabel, match="line 1: label '0' invalid on scale TWO_POINT"):
            join(Scale.TWO_POINT, [("t1", None, 1)], [("t1", None, 0)])


class TestGroupByTopic:
    """Per-topic count tables: gold class counts and confusion matrices."""

    def test_partition(self):
        rows = [("t1", "a", 1), ("t2", "a", -1), ("t3", "b", 1)]
        assert class_counts(Scale.TWO_POINT, rows) == {"a": (1, 1), "b": (0, 1)}

    def test_keys_sorted(self):
        rows = [("t1", "b", 1), ("t2", "a", 1), ("t3", "b", -1), ("t4", "a", -1)]
        assert list(class_counts(Scale.TWO_POINT, rows)) == ["a", "b"]
        assert list(join(Scale.TWO_POINT, rows, rows)[0]) == ["a", "b"]

    def test_single_topic_is_identity(self):
        rows = rows_from_counts({1: 3, -1: 2}, topic="only")
        assert class_counts(Scale.TWO_POINT, rows) == {"only": (2, 3)}
        tables, _ = join(Scale.TWO_POINT, rows, rows)
        assert tables == {"only": ConfusionMatrix(Scale.TWO_POINT, ((2, 0), (0, 3)))}

    def test_no_topics_keyed_under_none(self):
        rows = rows_from_counts({1: 1, -1: 2})
        assert class_counts(Scale.THREE_POINT, rows) == {None: (2, 0, 1)}
        assert class_counts(Scale.THREE_POINT, []) == {}

    def test_group_counts_sum_to_total_after_align(self):
        merged = rows_from_counts({1: 4, -1: 3}, topic="a") + rows_from_counts({1: 2}, topic="b")
        tables, _ = join(Scale.TWO_POINT, merged, constant_predictions(merged, 1))
        assert sum(t.total for t in tables.values()) == len(merged)
        pooled = tables["a"] + tables["b"]
        assert pooled.counts == ((0, 3), (0, 6))


@st.composite
def gold_and_pred(draw):
    """A scale, and gold and prediction label files on it that share every
    gold (id, topic) key; the predictions may hold extra keys. Ids repeat
    across topics; the data is either topicless or spread over several
    topics."""
    scale = draw(st.sampled_from(list(Scale)))
    topics = draw(st.sampled_from([[None], ["a", "b", "c"]]))
    keys = st.tuples(st.sampled_from(["t1", "t2", "t3", "t4", "t5"]), st.sampled_from(topics))
    label = st.sampled_from(scale.classes)
    gold = draw(st.dictionaries(keys, label, min_size=1))
    extra = draw(st.dictionaries(keys.filter(lambda k: k not in gold), label))
    pred = [(k, draw(label)) for k in gold] + list(extra.items())
    pred = draw(st.permutations(pred))
    return scale, [(i, t, c) for (i, t), c in gold.items()], [(i, t, c) for (i, t), c in pred]


class TestReferenceJoin:
    """The join and count_labels against per-row references."""

    @given(gold_and_pred())
    def test_confusion_tables(self, data):
        scale, gold, pred = data
        assert join(scale, gold, pred) == reference_join(scale, gold, pred)

    @given(gold_and_pred())
    def test_topic_class_counts(self, data):
        scale, gold, _ = data
        assert class_counts(scale, gold) == reference_class_counts(scale, gold)
        assert parsed_rows(label_text(gold), spec_for(scale, gold)) == gold


def label_fractions(labels, scale):
    """class_fractions of a one-topic label file with the given labels."""
    rows = [(f"t{i}", "x", label) for i, label in enumerate(labels)]
    return class_fractions(class_counts(scale, rows)["x"])


class TestPrevalence:
    def test_symmetric(self):
        p = label_fractions([1, 1, -1, -1], Scale.TWO_POINT)
        assert p == (0.5, 0.5)

    def test_point_mass(self):
        p = label_fractions([0, 0, 0], Scale.FIVE_POINT)
        # classes -2, -1, 0, 1, 2
        assert p[2] == 1.0 and sum(p) == 1.0

    def test_published_test_set_shares(self):
        # class counts 2375 positive / 5937 neutral / 3972 negative
        labels = [1] * 2375 + [0] * 5937 + [-1] * 3972
        p = label_fractions(labels, Scale.THREE_POINT)
        negative, neutral, positive = p
        assert round(positive, 4) == 0.1933
        assert round(neutral, 4) == 0.4833
        assert round(negative, 4) == 0.3233

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            class_fractions((0, 0))

    def test_invalid_fractions_rejected(self):
        with pytest.raises(InvalidLabel, match="sum to 1.2, expected 1"):
            normalized_prevalence(Scale.TWO_POINT, (0.6, 0.6))
        with pytest.raises(InvalidLabel, match="finite and nonnegative"):
            normalized_prevalence(Scale.TWO_POINT, (-0.1, 1.1))
        with pytest.raises(InvalidLabel, match="finite and nonnegative"):
            normalized_prevalence(Scale.TWO_POINT, (math.nan, math.nan))
        with pytest.raises(InvalidLabel, match="expected 2 fractions, got 1"):
            normalized_prevalence(Scale.TWO_POINT, (math.nan,))

    def test_a_validated_tuple(self):
        p = normalized_prevalence(Scale.FIVE_POINT, [0.0, 0.25, 0.5, 0.25, 0.0])
        assert type(p) is Prevalence
        assert p == p.fractions == (0.0, 0.25, 0.5, 0.25, 0.0)
        assert type(p.fractions) is tuple
        for copied in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(copied) is Prevalence and copied == p

    def test_off_sum_message_states_the_exact_sum(self):
        # a plain left-to-right sum of these values gives 0.9989999999999999
        with pytest.raises(InvalidLabel, match=r"sum to 0\.999, expected 1"):
            normalized_prevalence(Scale.FIVE_POINT, (0.000, 0.259, 0.296, 0.148, 0.296))
        with pytest.raises(InvalidLabel, match=r"sum to inf, expected 1"):
            normalized_prevalence(Scale.TWO_POINT, (1e308, 1e308))

    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=50),
           st.randoms())
    def test_permutation_invariant_and_sums_to_one(self, labels, rng):
        shuffled = labels[:]
        rng.shuffle(shuffled)
        p1 = label_fractions(labels, Scale.THREE_POINT)
        p2 = label_fractions(shuffled, Scale.THREE_POINT)
        assert p1 == p2
        assert abs(sum(p1) - 1.0) < 1e-12
