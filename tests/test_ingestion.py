import io
import itertools
import math
import random
import string
import tracemalloc
from operator import add
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    class_counts,
    constant_predictions,
    join,
    label_text,
    parsed_rows,
    reference_class_counts,
    reference_dedup,
    reference_join,
    reference_label_rows,
    rows_from_counts,
    spec_for,
)
from topicsent.errors import (
    DuplicateKey,
    EmptyText,
    InvalidArgument,
    InvalidLabel,
    MalformedLine,
    MissingPrediction,
    NoTopics,
    ScoringError,
)
from topicsent import ingestion
from topicsent.evaluate import SUBTASKS
from topicsent.ingestion import (
    count_labels,
    dedup,
    join_labels,
    normalized_prevalence,
    parse_annotations,
    parse_labels,
    parse_prevalence_file,
    stats,
)
from topicsent.model import Prevalence, Scale, duplicate_key, row_key


def parse(text, subtask="B"):
    """The topic -> id -> class index map of a label file."""
    return parse_labels(io.StringIO(text), SUBTASKS[subtask])


class TestParseDataset:
    """The faults of a whole label file, each reported with the line it is on."""

    def test_duplicate_key(self):
        with pytest.raises(DuplicateKey, match="^line 2: "):
            parse("t1\tTOPIC\tpositive\nt1\tTOPIC\tnegative\n", "B")

    def test_topic_rules_per_subtask(self):
        # a topic-based subtask needs a topic on every row, and A none on any
        with pytest.raises(MalformedLine, match="^line 1: subtask B requires a topic"):
            parse("t1\tNA\tpositive\n", "B")
        with pytest.raises(MalformedLine, match="^line 1: subtask A expects topic NA"):
            parse("t1\tTOPIC\tpositive\n", "A")

    def test_invalid_label_carries_line(self):
        with pytest.raises(InvalidLabel) as exc:
            parse("t1\tNA\t-3\ttext\n", "A")
        assert exc.value.line == 1
        with pytest.raises(InvalidLabel) as exc:
            parse("t1\tNA\tpositive\nt2\tNA\tpositve\nt3\tNA\tpositve\n", "A")
        assert exc.value.line == 2


class TestParseLabels:
    """Parsing a whole label file into its topic -> id -> class index map,
    under the row rules that every label file follows."""

    def test_direct_parse(self):
        assert parse("t1\tTOPIC\tpositive\tsome text\n", "B") == {"TOPIC": {"t1": 1}}

    def test_malformed_line(self):
        with pytest.raises(MalformedLine):
            parse("t1\tTOPIC\n", "B")

    def test_rows_share_topic_strings(self):
        # a padded topic field is the same topic, counted in the same row
        text = "t1\tTOPIC\tpositive\nt2\tTOPIC\tnegative\nt3\tTOPIC \t1\n"
        assert count_labels(io.StringIO(text), SUBTASKS["B"]) == {"TOPIC": (1, 2)}
        tables, _ = join_labels(io.StringIO(text), SUBTASKS["B"], parse("t3\tTOPIC\t1\n", "B"))
        assert list(tables) == ["TOPIC"]

    @given(st.data())
    def test_round_trip(self, data):
        spec = data.draw(st.sampled_from(list(SUBTASKS.values())))
        word = st.text(alphabet="abcxyz019_-", min_size=1, max_size=4)
        topic = word if spec.topic_based else st.none()
        keyed = data.draw(st.dictionaries(st.tuples(word, topic), st.sampled_from(spec.scale.classes)))
        # a row written as its row_key and integer label parses back to its id,
        # topic and class index, topics and ids in file order
        text = "".join(f"{row_key(i, t)}\t{label}\n" for (i, t), label in keyed.items())
        expected = {}
        for (i, t), label in keyed.items():
            expected.setdefault(t, {})[i] = spec.scale.classes.index(label)
        assert in_order(parse_labels(io.StringIO(text), spec)) == in_order(expected)

    def test_keys_are_canonical_fields(self):
        text = " t1 \t TOPIC\tpositive\nt2\tTOPIC\t-1\n"
        # class indices on the two-point scale (-1, 1) and the three-point (-1, 0, 1)
        assert parse_labels(io.StringIO(text), SUBTASKS["B"]) == {"TOPIC": {"t1": 1, "t2": 0}}
        assert parse_labels(io.StringIO("t1\t NA\t0\n"), SUBTASKS["A"]) == {None: {"t1": 1}}

    def test_gold_map_memory(self):
        """The score path holds gold as one id -> class index map per topic: 20k
        subtask-C rows with 18-digit ids in 200 topics keep under 125 traced
        bytes a row, where an (id, topic) tuple key beside its id string
        keeps about 150."""
        rng = random.Random(14)
        names = ["highlynegative", "negative", "neutral", "positive", "highlypositive"]
        lines = [f"{i}\ttopic{rng.randrange(200):03d}\t{rng.choice(names)}\n"
                 for i in rng.sample(range(10**17, 10**18), 20_000)]
        tracemalloc.start()  # lines, not a StringIO, so that no stream buffer is traced
        try:
            labels = parse_labels(lines, SUBTASKS["C"])
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(map(len, labels.values())) == 20_000
        assert kept / 20_000 < 125

    def test_duplicate_key_is_hard_error(self):
        with pytest.raises(DuplicateKey):
            parse("t1\tx\t1\nt1\tx\t-1\n")

    def test_same_id_different_topic_allowed(self):
        assert parse("t1\tx\t1\nt1\ty\t-1\n") == {"x": {"t1": 1}, "y": {"t1": 0}}

    def test_mixed_topic_presence_rejected(self):
        # a topic on some rows and none on others is refused at the first odd row
        with pytest.raises(MalformedLine, match="^line 2: subtask B requires a topic"):
            parse("t1\tx\t1\nt2\tNA\t-1\n", "B")
        with pytest.raises(MalformedLine, match="^line 2: subtask A expects topic NA"):
            parse("t1\tNA\t1\nt2\tx\t-1\n", "A")

    def test_label_outside_scale_rejected(self):
        with pytest.raises(InvalidLabel):
            parse("t1\tx\t0\n")

    def test_empty_id_rejected(self):
        with pytest.raises(MalformedLine, match="line 2: empty id field"):
            parse("t1\tx\t1\n\tx\t-1\n")

    @pytest.mark.parametrize("row", [("x\ty", "a", 1), ("x", "a\tb", 1), ("x", "NA", 1)])
    def test_fields_no_file_can_hold_rejected(self, row):
        # a tab ends a field, and the topic NA stands for no topic, so no
        # line gives such an (id, topic) and row_key stays injective
        error = MalformedLine if row[1] == "NA" else InvalidLabel
        with pytest.raises(error):
            parse("\t".join(map(str, row)) + "\n")

    def test_na_topic_cannot_match_a_topicless_prediction(self):
        # gold with the topic NA is topicless, which topic-based subtasks reject
        with pytest.raises(MalformedLine, match="line 1: subtask B requires a topic"):
            parse("x\tNA\t1\n", "B")
        tables, ignored = join(Scale.THREE_POINT, [("x", None, 1)], [("x", None, 1)])
        assert list(tables) == [None] and ignored == 0

    def test_labels_keyed_in_input_order(self):
        assert list(parse("t2\tx\t1\nt1\tx\t-1\n")["x"].items()) == [("t2", 1), ("t1", 0)]
        assert list(parse("t2\ty\t1\nt1\tx\t-1\nt3\ty\t1\n")) == ["y", "x"]


@st.composite
def label_files(draw):
    """A subtask and the rows of a label file for it: (id, topic field,
    label field), with padded and repeated ids and topics, label names and
    integers, and sometimes a repeated (id, topic) pair."""
    spec = SUBTASKS[draw(st.sampled_from("ABCDE"))]
    topic = st.sampled_from(["a", " a", "b ", "c"] if spec.topic_based else ["NA", " NA "])
    label = st.sampled_from([str(c) for c in spec.scale.classes]
                            + [spec.scale.class_name(c).lower() for c in spec.scale.classes])
    rows = draw(st.lists(st.tuples(st.sampled_from(["t1", " t1", "t2", "t3"]), topic, label),
                         max_size=12))
    return spec, rows


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


class TestCountLabels:
    """Per-topic class counts of a label file, topics sorted, and data
    without topics under None."""

    @given(label_files())
    def test_equals_a_per_row_reference(self, data):
        spec, rows = data
        text = "".join("\t".join(r) + "\n" for r in rows)
        keys = [(i.strip(), t.strip()) for i, t, _ in rows]
        repeats = [n for n, key in enumerate(keys, start=1) if key in keys[: n - 1]]
        if repeats:
            with pytest.raises(DuplicateKey) as exc:
                count_labels(io.StringIO(text), spec)
            assert exc.value.line == repeats[0]
        else:
            parsed = [(i, None if t == "NA" else t, spec.scale.parse_label(label))
                      for (i, t), (_, _, label) in zip(keys, rows)]
            expected = reference_class_counts(spec.scale, parsed)
            assert count_labels(io.StringIO(text), spec) == expected

    def test_faults_carry_their_line(self):
        for text, error, line in [("t1\ta\t1\nt2\tNA\t1\n", MalformedLine, 2),
                                  ("t1\ta\t1\nt1\ta \t-1\n", DuplicateKey, 2),
                                  ("t1\ta\t1\nt2\ta\t0_1\n", InvalidLabel, 2)]:
            with pytest.raises(error) as exc:
                count_labels(io.StringIO(text), SUBTASKS["B"])
            assert exc.value.line == line

    def test_empty_and_topicless(self):
        assert count_labels(io.StringIO(""), SUBTASKS["B"]) == {}
        text = "t1\tNA\t1\nt2\tNA\tneutral\nt3\tNA\t1\n"
        assert count_labels(io.StringIO(text), SUBTASKS["A"]) == {None: (0, 1, 2)}

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
        assert tables == {"only": ((2, 0), (0, 3))}

    def test_no_topics_keyed_under_none(self):
        rows = rows_from_counts({1: 1, -1: 2})
        assert class_counts(Scale.THREE_POINT, rows) == {None: (2, 0, 1)}
        assert class_counts(Scale.THREE_POINT, []) == {}

    @given(gold_and_pred())
    def test_topic_class_counts(self, data):
        scale, gold, _ = data
        assert class_counts(scale, gold) == reference_class_counts(scale, gold)
        # parse_labels groups the rows by topic, topics and ids in file order
        topics = dict.fromkeys(t for _, t, _ in gold)
        grouped = [(i, t, scale.classes.index(label))
                   for topic in topics for i, t, label in gold if t == topic]
        assert parsed_rows(label_text(gold), spec_for(scale, gold)) == grouped


class TestJoinLabels:
    """Joining predictions onto gold by (id, topic) into per-topic
    gold-by-prediction tables."""

    def test_direct_pairing(self):
        gold = [("t1", None, 1), ("t2", None, -1)]
        pred = [("t1", None, 1), ("t2", None, 1)]
        tables, ignored = join(Scale.TWO_POINT, gold, pred)
        assert list(tables) == [None] and ignored == 0
        # rows are gold -1, +1; columns predicted -1, +1
        assert tables[None] == ((0, 1), (0, 1))

    def test_missing_prediction(self):
        with pytest.raises(MissingPrediction):
            join(Scale.TWO_POINT, [("t1", None, 1)], [])

    def test_extra_predictions_ignored_with_count(self):
        pred = [("t1", None, 1), ("t9", None, -1)]
        tables, ignored = join(Scale.TWO_POINT, [("t1", None, 1)], pred)
        assert sum(map(sum, tables[None])) == 1
        assert ignored == 1
        # rows of a topic that gold lacks are ignored too, and give no table
        pred = [("t1", "a", 1), ("t9", "ghost", -1), ("t1", "ghost", 1), ("t9", "a", 1)]
        tables, ignored = join(Scale.TWO_POINT, [("t1", "a", 1)], pred)
        assert tables == {"a": ((0, 0), (0, 1))}
        assert ignored == 3

    def test_streamed_rows(self):
        """join_labels takes gold over and catches a repeated prediction key,
        in gold or not, at its row's line: each matched or unmatched
        prediction id is left as None in its topic's map."""
        gold = {"a": {"t1": 1, "t2": 0, "t3": 1}}  # class indices: labels 1, -1, 1
        rows_in = "t3\ta\t1\nt9\ta\t1\nt1\ta\t-1\n"

        def run(text, gold):
            return join_labels(io.StringIO(rows_in + text), SUBTASKS["B"], gold)

        def copy():
            return {t: dict(ids) for t, ids in gold.items()}

        with pytest.raises(MissingPrediction, match=r"^no prediction for gold item t2 \(topic a\)$"):
            run("", copy())
        with pytest.raises(DuplicateKey, match=r"^line 5: duplicate \(id, topic\) pair \('t3', 'a'\)$"):
            run("\nt3\ta\t1\n", copy())
        with pytest.raises(DuplicateKey, match="line 6"):
            run("\n\nt9\ta\t-1\n", copy())
        tables, ignored = run("\n\n\nt2\ta\t1\n", gold)
        assert tables["a"] == ((0, 1), (1, 1)) and ignored == 1
        assert gold == {"a": dict.fromkeys(["t1", "t2", "t3", "t9"])}

    def test_missing_prediction_names_least_key(self):
        """Missing predictions in two topics name the least (topic, id), not the
        first of the file's first topic, and a gold item of class index 0 is
        as missing as any other; a gold set of index-0 items, all predicted,
        raises nothing."""
        pred = io.StringIO("t2\tz\t1\nt4\tb\t1\n")
        gold = parse("t1\tz\t1\nt2\tz\t1\nt3\tb\t-1\nt4\tb\t1\n")
        assert gold["b"]["t3"] == 0
        with pytest.raises(MissingPrediction, match=r"^no prediction for gold item t3 \(topic b\)$"):
            join_labels(pred, SUBTASKS["B"], gold)
        gold = parse("t1\tz\t-1\nt2\tb\t-1\n")
        tables, _ = join_labels(io.StringIO("t2\tb\t1\nt1\tz\t-1\n"), SUBTASKS["B"], gold)
        assert tables == {"b": ((0, 1), (0, 0)), "z": ((1, 0), (0, 0))}

    def test_scale_mismatch(self):
        # predictions are read on the gold scale, so a label off it fails at its line
        with pytest.raises(InvalidLabel, match="line 1: label '0' invalid on scale TWO_POINT"):
            join(Scale.TWO_POINT, [("t1", None, 1)], [("t1", None, 0)])

    def test_table_counts_sum_to_total_after_join(self):
        merged = rows_from_counts({1: 4, -1: 3}, topic="a") + rows_from_counts({1: 2}, topic="b")
        tables, _ = join(Scale.TWO_POINT, merged, constant_predictions(merged, 1))
        assert sum(sum(map(sum, t)) for t in tables.values()) == len(merged)
        pooled = tuple(tuple(map(add, r, s)) for r, s in zip(tables["a"], tables["b"]))
        assert pooled == ((0, 3), (0, 6))

    @given(gold_and_pred())
    def test_equals_a_per_row_reference(self, data):
        scale, gold, pred = data
        assert join(scale, gold, pred) == reference_join(scale, gold, pred)


def faulty_lines(spec):
    """Lines that no label file for the subtask may hold: short, blank but for
    a space, with an empty id, a blank topic, a topic against the subtask's
    rule, a bad or off-scale label in the last column, or a bad label ending
    in "\\r" before a text column."""
    right, wrong = ("NA", "x") if spec.id == "A" else ("a", "NA")
    return [" ", "t9\ta", "\ta\t1", "t9\t \t1", f"t9\t{wrong}\t1",
            *(f"t9\t{right}\t{label}" for label in ["2", "-3", "posit", "", "posit\r\tx"])]


def labels_of(spec):
    """The label fields of the subtask's scale: integers and lowercase names."""
    return st.sampled_from([str(c) for c in spec.scale.classes]
                           + [spec.scale.class_name(c).lower() for c in spec.scale.classes])


def padded(word):
    """The word as a raw field: as it is, or with a space before or after it."""
    return st.sampled_from([word, f" {word}", f"{word} "])


TEXTS = st.sampled_from(["", "", "\tsome text", "\ttext\textra", "\t"])  # after the label


def written(draw, rows, fault):
    """The rows as a file's text, with the fault line, unless None, at a
    drawn place: LF or CRLF endings, with or without a final one."""
    if fault is not None:
        rows.insert(draw(st.integers(0, len(rows))), fault)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(rows) + draw(st.sampled_from(["", end]))


@st.composite
def label_texts(draw, spec):
    """A label file for the subtask as text: LF or CRLF endings, with or
    without a final newline; padded and repeated ids and topics, a text
    column or none, label names and integers and blank lines, and in about
    half of the files one of the faulty_lines."""
    ids = st.sampled_from(["t1", " t1", "t2", "t3 "])
    topics = st.sampled_from(["a", " a", "b ", "c"] if spec.topic_based else ["NA", " NA "])
    row = st.builds("{}\t{}\t{}{}".format, ids, topics, labels_of(spec), TEXTS) | st.just("")
    rows = draw(st.lists(row, max_size=10))
    return written(draw, rows, draw(st.none() | st.sampled_from(faulty_lines(spec))))


@st.composite
def gold_and_pred_texts(draw, spec):
    """Gold and prediction label files for the subtask, written as
    label_texts writes them, whose prediction rows come from gold's (id,
    topic) keys as in gold_and_pred: in about half of the examples two or more
    gold keys dropped, and ids that gold lacks added, in gold's topics and
    in one that gold lacks, one of them sometimes twice, in any order. Each
    field may be padded, and in a third of the examples one file holds one
    of the faulty_lines."""
    topics = ["a", "b", "c"] if spec.topic_based else ["NA"]
    ids = ["t1", "t2", "t3", "t4", "t5"]
    gold = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(topics)),
                         unique=True, max_size=10))
    dropped = set()
    if len(gold) > 1 and draw(st.booleans()):
        dropped = draw(st.sets(st.sampled_from(gold), min_size=2))
    extra_keys = st.tuples(st.sampled_from(ids + ["t8", "t9"]),
                           st.sampled_from(topics + ["d"] if spec.topic_based else topics))
    extra = draw(st.lists(extra_keys.filter(lambda key: key not in gold), unique=True,
                          max_size=3))
    if extra and draw(st.booleans()):
        extra.append(draw(st.sampled_from(extra)))
    pred = draw(st.permutations([key for key in gold if key not in dropped] + extra))
    faulty = draw(st.sampled_from([None, None, None, None, "gold", "pred"]))
    texts = []
    for name, keys in [("gold", gold), ("pred", pred)]:
        rows = [draw(st.builds("{}\t{}\t{}{}".format, padded(item_id), padded(topic),
                               labels_of(spec), TEXTS)) for item_id, topic in keys]
        for _ in range(draw(st.integers(0, 2))):
            rows.insert(draw(st.integers(0, len(rows))), "")
        fault = draw(st.sampled_from(faulty_lines(spec))) if faulty == name else None
        texts.append(written(draw, rows, fault))
    return texts


def outcome(f):
    """What f() returns, or the type and message of the ScoringError it raises."""
    try:
        return f()
    except ScoringError as exc:
        return type(exc), str(exc)


def in_order(labels):
    """A topic -> id -> class index map, or a topic -> counts map, as a list of
    (topic, value) pairs with each id map as a list of (id, class index) pairs,
    so that equality also compares the order."""
    return [(t, list(v.items()) if isinstance(v, dict) else v) for t, v in labels.items()]


def fold_rows(text, spec):
    """The (id, topic, label) rows of a label file, in file order."""
    labels = {}
    for n, item_id, topic, label in reference_label_rows(io.StringIO(text), spec):
        if (item_id, topic) in labels:
            raise duplicate_key(item_id, topic, n)
        labels[item_id, topic] = label
    return [(item_id, topic, label) for (item_id, topic), label in labels.items()]


def fold_labels(scale, rows):
    """The topic -> id -> class index map of the rows."""
    labels = {}
    for item_id, topic, label in rows:
        labels.setdefault(topic, {})[item_id] = scale.classes.index(label)
    return labels


class TestLabelLoopsMatchReference:
    """parse_labels and join_labels each read a label file in one loop that
    checks a raw topic or label field only the first time it appears; they
    and count_labels, a fold of parse_labels, give what fold_labels,
    reference_class_counts and reference_join give over the fold_rows of the
    same files, or the same error with the same message."""

    @given(st.data())
    def test_parse_and_count(self, data):
        spec = SUBTASKS[data.draw(st.sampled_from("ABCDE"))]
        text = data.draw(label_texts(spec))
        for read, fold in [(parse_labels, fold_labels), (count_labels, reference_class_counts)]:
            expected = outcome(lambda: in_order(fold(spec.scale, fold_rows(text, spec))))
            assert outcome(lambda: in_order(read(io.StringIO(text), spec))) == expected

    @given(st.data())
    def test_join(self, data):
        spec = SUBTASKS[data.draw(st.sampled_from("ABC"))]
        gold_text, pred_text = data.draw(gold_and_pred_texts(spec))

        def streamed():
            gold = parse_labels(io.StringIO(gold_text), spec)
            tables, n_ignored = join_labels(io.StringIO(pred_text), spec, gold)
            return list(tables.items()), n_ignored

        def reference():
            gold, pred = fold_rows(gold_text, spec), fold_rows(pred_text, spec)
            tables, n_ignored = reference_join(spec.scale, gold, pred)
            return list(tables.items()), n_ignored

        assert outcome(streamed) == outcome(reference)


class TestParsePrevalenceFile:
    def test_basic(self):
        text = "a\tpositive\t0.75\na\tnegative\t0.25\n"
        out = parse_prevalence_file(io.StringIO(text), Scale.TWO_POINT)
        assert out["a"].fractions == pytest.approx((0.25, 0.75))

    def test_sum_check(self):
        text = "a\tpositive\t0.75\na\tnegative\t0.35\n"
        with pytest.raises(MalformedLine):
            parse_prevalence_file(io.StringIO(text), Scale.TWO_POINT)

    def test_sum_beyond_float_range(self):
        text = "a\tpositive\t1e308\na\tnegative\t1e308\n"
        with pytest.raises(MalformedLine) as exc:
            parse_prevalence_file(io.StringIO(text), Scale.TWO_POINT)
        assert exc.value.line == 2

    def test_repeated_class(self):
        text = "a\tpositive\t0.5\na\tpositive\t0.5\n"
        with pytest.raises(DuplicateKey):
            parse_prevalence_file(io.StringIO(text), Scale.TWO_POINT)

    @pytest.mark.parametrize("value", ["0.2_5", "\u0660.25", "0.25\u00a0", "\uff10.25"])
    def test_values_are_ascii_numbers(self, value):
        text = f"a\tpositive\t0.75\na\tnegative\t{value}\n"
        with pytest.raises(MalformedLine, match="^line 2: bad prevalence value") as exc:
            parse_prevalence_file(io.StringIO(text), Scale.TWO_POINT)
        assert exc.value.line == 2


def stated_fractions(k):
    """Lists of k fractions: any floats, or shares of a positive total with
    the first moved by up to 2e-6, so that the sum straddles the tolerance."""
    shares = st.lists(st.floats(0, 1), min_size=k, max_size=k).filter(lambda v: math.fsum(v) > 0)
    near_one = st.tuples(shares, st.floats(-2e-6, 2e-6)).map(
        lambda s: [x / math.fsum(s[0]) + (s[1] if i == 0 else 0.0) for i, x in enumerate(s[0])])
    return st.one_of(st.lists(st.floats(), min_size=k, max_size=k), near_one)


class TestPrevalenceRule:
    """A --kind prevalence list and a one-topic prevalence file follow one rule."""

    @example(fractions=[0.000, 0.999])
    @example(fractions=[0.3, 0.7000001])
    @example(fractions=[1e308, 1e308])
    @example(fractions=[-0.1, 1.1])
    @example(fractions=[-0.0, 1.0])
    @example(fractions=[math.nan, 1.0])
    @example(fractions=[0.000, 0.259, 0.296, 0.148, 0.296])
    @given(st.sampled_from([2, 5]).flatmap(stated_fractions))
    def test_lists_and_files_accept_the_same_fractions(self, fractions):
        scale = Scale.TWO_POINT if len(fractions) == 2 else Scale.FIVE_POINT
        text = "".join(f"a\t{c}\t{f!r}\n" for c, f in zip(scale.classes, fractions))
        try:
            listed = normalized_prevalence(scale, fractions)
        except InvalidLabel:
            listed = None
        try:
            parsed = parse_prevalence_file(io.StringIO(text), scale)["a"]
        except MalformedLine:
            parsed = None
        assert parsed == listed
        if listed is not None:
            assert type(listed) is type(parsed) is Prevalence


class TestParseAnnotations:
    def test_basic(self):
        text = "t1\tx\t1\t1\t1\t-2\t-2\n t2 \tNA\t0\t0\t0\t0\t0\n"
        rows = parse_annotations(io.StringIO(text))
        assert rows == [("t1\tx", [1, 1, 1, -2, -2]), ("t2\tNA", [0, 0, 0, 0, 0])]

    def test_too_few(self):
        from topicsent.errors import TooFewAnnotators

        with pytest.raises(TooFewAnnotators):
            parse_annotations(io.StringIO("t1\tx\t1\t1\t1\n"))

    def test_empty_id(self):
        with pytest.raises(MalformedLine) as exc:
            parse_annotations(io.StringIO("t1\tx\t1\t1\t1\t0\t0\n \tx\t1\t1\t1\t0\t0\n"))
        assert exc.value.line == 2

    @pytest.mark.parametrize("label", ["0_1", "\u0661"])
    def test_labels_are_ascii_integers(self, label):
        text = f"t1\tx\t1\t1\t1\t0\t0\nt2\tx\t1\t1\t1\t0\t{label}\n"
        with pytest.raises(InvalidLabel, match="^line 2: annotator labels must be integers"):
            parse_annotations(io.StringIO(text))


def record(i, text):
    """The (id, text, line) tuple parse_raw_records gives for the row t<i>, x, no label, text."""
    return f"t{i}", text, f"t{i}\tx\t\t{text}"


def seeded_texts():
    """1,500 Zipf-weighted word lists; about 15% are edited copies of an
    earlier one."""
    rng = random.Random(2007)
    vocab = [f"w{i}" for i in range(300)]
    weights = [1 / (rank + 1) for rank in range(len(vocab))]
    texts: list[list[str]] = []
    for _ in range(1_500):
        if texts and rng.random() < 0.15:
            # an edited copy of an earlier record
            words = list(rng.choice(texts))
            if rng.random() < 0.5 and len(words) > 1:
                del words[rng.randrange(len(words))]
            else:
                words.insert(rng.randrange(len(words) + 1), rng.choice(vocab))
        else:
            words = rng.choices(vocab, weights, k=rng.randint(3, 14))
        texts.append(words)
    return texts


class TestDedup:
    def test_near_duplicate_removed(self):
        kept, removed = dedup([record(1, "a b c"), record(2, "a b d")])
        assert [r[0] for r in kept] == ["t1"]
        assert removed[0][0][0] == "t2" and removed[0][1][0] == "t1"

    def test_distinct_kept(self):
        kept, removed = dedup([record(1, "a b"), record(2, "c d"), record(3, "e f")])
        assert len(kept) == 3 and not removed

    def test_exact_duplicates(self):
        kept, removed = dedup([record(i, "same text here") for i in range(3)])
        assert len(kept) == 1 and len(removed) == 2

    def test_at_threshold_kept(self):
        # similarity exactly at the threshold must survive (strictly-greater rule)
        kept, _ = dedup([record(1, "a"), record(2, "a")], threshold=1.0)
        assert len(kept) == 2

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(InvalidArgument):
            dedup([record(1, "a b")], threshold=threshold)

    def test_first_empty_record_reported(self):
        # t2 would be removed as a copy of t1, and t4 is empty too; the error
        # names the first record without tokens in input order
        records = [record(1, "a b"), record(2, "a b"), record(3, "..."), record(4, "!")]
        with pytest.raises(EmptyText) as info:
            dedup(records)
        assert str(info.value) == "record t3 has no tokens"

    @given(st.lists(st.text(alphabet="abcdef ", min_size=1).filter(str.strip), max_size=25))
    def test_idempotent(self, texts):
        records = [record(i, t) for i, t in enumerate(texts)]
        kept, _ = dedup(records)
        kept2, removed2 = dedup(kept)
        assert kept2 == kept and not removed2

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.6, 0.9, 1.0])
    def test_token_renaming_keeps_result(self, threshold):
        """A one-to-one renaming of the tokens reorders the rarest-first ranks
        on their (df, token) tie-break, and with them the prefixes; the
        filters are exact, so kept and removed stay the same."""
        texts = seeded_texts()
        vocab = sorted({w for words in texts for w in words})
        fresh = ["".join(w) for w in itertools.product(string.ascii_lowercase, repeat=3)]
        rename = dict(zip(vocab, random.Random(1).sample(fresh, len(vocab))))
        results = []
        for corpus in (texts, [[rename[w] for w in words] for words in texts]):
            kept, removed = dedup([record(i, " ".join(words)) for i, words in enumerate(corpus)],
                                  threshold)
            results.append(([r[0] for r in kept], [(r[0], hit[0]) for r, hit in removed]))
        assert results[0] == results[1]

    @pytest.mark.parametrize("threshold", [0, 1])
    def test_integer_threshold_equals_float(self, threshold):
        # the verify compares with operator.lt(threshold, cos); an int's own
        # __lt__(float) returns NotImplemented, which would count as a hit
        records = [record(i, " ".join(words)) for i, words in enumerate(seeded_texts())]
        assert dedup(records, threshold) == dedup(records, float(threshold))

    def test_casefold_and_punctuation(self):
        """dedup's tokens are casefolded words without leading and trailing
        punctuation: the text below has the tokens strasse, fine and i\u0307,
        so the record of those three words is its copy, and two of them are not."""
        records = [record(1, "«Straße» ¿ﬁne? \u00a0İ…\u2003—!"), record(2, "strasse fine"),
                   record(3, "strasse fine i\u0307")]
        _, removed = dedup(records, threshold=0.99)
        assert [(r[0], hit[0]) for r, hit in removed] == [("t3", "t1")]


def assert_matches_reference(records, threshold):
    kept, removed = dedup(records, threshold)
    ref_kept, ref_removed = reference_dedup(records, threshold)
    assert [r[0] for r in kept] == [r[0] for r in ref_kept]
    assert [(r[0], hit[0]) for r, hit in removed] == [(r[0], hit[0]) for r, hit in ref_removed]


_TEXT = st.lists(st.sampled_from("a b c d e f".split()), min_size=1, max_size=8).map(" ".join)
# each token repeated up to 5 times, so most pairs have TF > 1 on both sides
_REPEATED_TEXT = st.lists(
    st.tuples(st.sampled_from("a b c d e f".split()), st.integers(1, 5)), min_size=1, max_size=5
).map(lambda words: " ".join(" ".join([w] * n) for w, n in words))
_THRESHOLD = st.sampled_from([0.0, 1.0, 2**-0.5, 0.6]) | st.floats(0.0, 1.0)
_SHARED = " ".join(f"s{i}" for i in range(18))
_SHARED_TF = "s0 s0 s1 s2 s3 s4 s5 s6"
# Words from Unicode and ASCII punctuation, letters whose casefold expands
# (ß -> ss, ﬁ -> fi, İ -> i + U+0307) next to what they expand to, and mixed
# case, joined by ASCII and Unicode spaces: many raw words share one token,
# and some words are all punctuation.
_WORD = st.lists(
    st.sampled_from([*"«»¿¡—…!?.,", "ß", "ss", "SS", "ﬁ", "fi", "FI", "İ", "i\u0307", "I", "a", "Ab"]),
    min_size=1, max_size=4,
).map("".join)
_UNICODE_TEXT = st.lists(
    st.tuples(_WORD, st.sampled_from([" ", "\u00a0", "\u2003"])), min_size=1, max_size=6
).map(lambda pairs: "".join(w + sep for w, sep in pairs))


# Bags over 400 words, each repeated 1-5 times: a corpus of a few bags holds
# more distinct tokens than a bitmap has bits, so bits collide, and the
# records' sorted tf tuples differ.
_BAG_TEXT = st.lists(
    st.tuples(st.integers(0, 399), st.integers(1, 5)), min_size=1, max_size=40
).map(lambda bag: " ".join(" ".join([f"v{w}"] * n) for w, n in bag))


class TestDedupMatchesReference:
    @settings(max_examples=300)
    @given(
        pool=st.lists(_TEXT, min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), max_size=30),
        threshold=_THRESHOLD,
    )
    # The second text is the first without its three rare tokens. Their
    # cosine, sqrt(18/21), lies just below this threshold, but the float
    # expression rounds above it, so the second is removed, and only a prefix
    # and a cut that both have slack find the pair.
    @example(pool=[f"r0 r1 r2 {_SHARED}", _SHARED], picks=[0, 1], threshold=0.9258200997725515)
    @example(pool=["a b c", "a"], picks=[0, 0, 1, 1], threshold=1.0)
    # The pair meets first at s0, the kept record's second prefix token. The
    # query's share there is 1 and the kept record's, counting s0 itself, is
    # sqrt(10/11), which is the cosine, so the cut at the first shared token
    # has no room: a share that leaves out the token's own weight drops the pair.
    @example(pool=[f"r0 {_SHARED_TF}", _SHARED_TF], picks=[0, 1], threshold=0.9534625892455922)
    def test_small_corpora(self, pool, picks, threshold):
        # picks index the pool, so exact duplicate texts are common
        records = [record(i, pool[p % len(pool)]) for i, p in enumerate(picks)]
        assert_matches_reference(records, threshold)

    @settings(max_examples=300)
    @given(
        pool=st.lists(_REPEATED_TEXT, min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), max_size=30),
        threshold=_THRESHOLD,
    )
    def test_repeated_tokens(self, pool, picks, threshold):
        records = [record(i, pool[p % len(pool)]) for i, p in enumerate(picks)]
        assert_matches_reference(records, threshold)

    @settings(max_examples=300)
    @given(
        pool=st.lists(_UNICODE_TEXT, min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), max_size=30),
        threshold=_THRESHOLD,
    )
    def test_unicode_tokens(self, pool, picks, threshold):
        """The per-call memo maps each raw word to its token; words that
        differ in case, punctuation or casefold form must meet in one token."""
        records = [record(i, pool[p % len(pool)]) for i, p in enumerate(picks)]
        try:
            expected = reference_dedup(records, threshold)
        except EmptyText as exc:
            with pytest.raises(EmptyText, match=f"^{exc}$"):
                dedup(records, threshold)
        else:
            assert dedup(records, threshold) == expected

    @settings(max_examples=300)
    @given(
        pool=st.lists(_BAG_TEXT, min_size=1, max_size=6),
        picks=st.lists(
            st.tuples(st.integers(0, 5), st.lists(st.integers(0, 399), max_size=3)), max_size=30
        ),
        threshold=_THRESHOLD,
    )
    # the slack-boundary pairs of test_small_corpora, through the bitmap filter
    @example(pool=[f"r0 r1 r2 {_SHARED}", _SHARED], picks=[(0, []), (1, [])],
             threshold=0.9258200997725515)
    @example(pool=[f"r0 {_SHARED_TF}", _SHARED_TF], picks=[(0, []), (1, [])],
             threshold=0.9534625892455922)
    def test_bitmap_collisions(self, pool, picks, threshold):
        """Every candidate list goes through the bitmap filter, whatever its
        length; each record is a pool bag with up to three words added, so
        near-duplicates are common."""
        records = [record(i, " ".join([pool[p % len(pool)], *(f"v{w}" for w in extra)]))
                   for i, (p, extra) in enumerate(picks)]
        with mock.patch.object(ingestion, "_BITMAP_MIN", 1):
            assert_matches_reference(records, threshold)

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.6, 0.9, 1.0])
    def test_seeded_corpus(self, threshold):
        records = [record(i, " ".join(words)) for i, words in enumerate(seeded_texts())]
        assert_matches_reference(records, threshold)


def pair_cosine(tfs):
    """The cosine of two records by dedup's float rule, from (tf in the first,
    tf in the second) per token."""
    dot = sum(a * b for a, b in tfs)
    norm, onorm = (math.sqrt(sum(t * t for t in side)) for side in zip(*tfs))
    return dot / (norm * onorm)


def bitmap_limit(tfs, ranks, threshold):
    """The bitmap distance h of two records and the limit _h_limit sets on it,
    from (tf in the first, tf in the second) per token and its rank."""
    bq, bo = (ingestion._bitmap([r for r, t in zip(ranks, side) if t]) for side in zip(*tfs))
    energies = (ingestion._energy(filter(None, side)) for side in zip(*tfs))
    low = threshold * ingestion._SLACK
    return (bq ^ bo).bit_count(), ingestion._h_limit(*(low * low).as_integer_ratio(), *energies)


class TestBitmapBound:
    """The bitmap filter may drop a pair only when its cosine cannot pass."""

    @settings(max_examples=500)
    @given(
        tfs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=24)
        .filter(lambda tfs: all(map(any, zip(*tfs)))),
        layout=st.sampled_from(["one bit each", "all on one bit", "random"]),
        ranks=st.lists(st.integers(0, 3 * ingestion._BITS), min_size=24, max_size=24),
        threshold=_THRESHOLD,
    )
    @example(tfs=[(1, 1)] * 18 + [(1, 0)] * 3, layout="one bit each", ranks=[0] * 24,
             threshold=0.9258200997725515)
    def test_limit_passes_every_colliding_pair(self, tfs, layout, ranks, threshold):
        """Tokens on bits of their own give the largest h, the size of the
        symmetric difference; all tokens on one bit give h = 0."""
        if layout == "one bit each":
            ranks = range(len(tfs))
        elif layout == "all on one bit":
            ranks = [ingestion._BITS * i for i in range(len(tfs))]
        h, limit = bitmap_limit(tfs, ranks, threshold)
        if pair_cosine(tfs) > threshold:
            assert h <= limit

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.6, 0.9, 1.0])
    def test_limit_extremes(self, threshold):
        # identical records and all bits colliding: h = 0 always passes
        same = [(2, 2), (1, 1), (1, 1)]
        assert bitmap_limit(same, [0, 0, 0], threshold)[1] >= 0
        # no shared token and a bit per token: h = d + od, which passes only
        # at threshold 0, where the verify still finds cosine 0 not above it
        apart = [(2, 0), (1, 0), (0, 3), (0, 1)]
        h, limit = bitmap_limit(apart, range(4), threshold)
        assert h == 4 and (h <= limit) == (threshold == 0)


class TestStats:
    """stats on per-topic class-count maps, as count_labels returns them;
    with min_size, only the topics holding at least min_size items count."""

    def test_counts_and_total(self):
        counts = class_counts(
            Scale.FIVE_POINT, rows_from_counts({2: 13, 1: 1548, 0: 3343, -1: 1175, -2: 21}, topic="x")
        )
        per_class, per_topic = stats(Scale.FIVE_POINT, counts)
        assert list(per_class) == [2, 1, 0, -1, -2]  # most positive first
        assert per_class == {2: 13, 1: 1548, 0: 3343, -1: 1175, -2: 21}
        assert sum(per_class.values()) == 6100
        assert per_topic == {"x": 6100}

    def test_empty(self):
        per_class, per_topic = stats(Scale.THREE_POINT, {})
        assert per_class == {1: 0, 0: 0, -1: 0} and list(per_class) == [1, 0, -1]
        assert per_topic == {}

    def test_no_topics(self):
        per_class, per_topic = stats(Scale.THREE_POINT, {None: (1, 0, 2)})
        assert per_class == {1: 2, 0: 0, -1: 1}
        assert per_topic == {}

    def test_per_topic_in_count_order(self):
        per_class, per_topic = stats(Scale.TWO_POINT, {"a": (1, 0), "b": (2, 5), "c": (0, 0)},
                                     min_size=1)
        assert per_topic == {"a": 1, "b": 7} and list(per_topic) == ["a", "b"]
        assert per_class == {1: 5, -1: 3}

    def test_min_size_boundary(self):
        counts = class_counts(Scale.TWO_POINT, rows_from_counts({1: 99}, topic="small")
                              + rows_from_counts({1: 100}, topic="big"))
        per_class, per_topic = stats(Scale.TWO_POINT, counts, min_size=100)
        assert set(per_topic) == {"big"}
        assert sum(per_class.values()) == 100

    def test_min_size_one_is_identity(self):
        counts = {"x": (2, 3)}
        assert stats(Scale.TWO_POINT, counts, min_size=1) == stats(Scale.TWO_POINT, counts)

    def test_negative_min_size_rejected(self):
        with pytest.raises(InvalidArgument):
            stats(Scale.TWO_POINT, {"x": (0, 3)}, min_size=-5)

    def test_min_size_requires_topics(self):
        with pytest.raises(NoTopics):
            stats(Scale.TWO_POINT, {None: (0, 3)}, min_size=100)
        with pytest.raises(NoTopics):
            stats(Scale.TWO_POINT, {}, min_size=0)
