"""Grouping Accuracy metric (§5.1.3)."""
import pytest

from repro.eval.ga import grouping_accuracy


class TestPure:
    def test_perfect(self):
        assert grouping_accuracy([1, 1, 2, 2], ["a", "a", "b", "b"]) == 1.0

    def test_relabeled_perfect(self):
        assert grouping_accuracy(["x", "x", "y"], [9, 9, 7]) == 1.0

    def test_merge_penalizes_both_groups(self):
        # One predicted group covering two gt groups: all 4 logs wrong.
        assert grouping_accuracy([1, 1, 1, 1], ["a", "a", "b", "b"]) == 0.0

    def test_split_penalizes_whole_group(self):
        assert grouping_accuracy([1, 2, 3, 3], ["a", "a", "b", "b"]) == 0.5

    def test_partial(self):
        pred = [1, 1, 2, 3, 3, 3]
        gt = ["a", "a", "a", "b", "b", "b"]
        assert grouping_accuracy(pred, gt) == 0.5

    def test_empty(self):
        assert grouping_accuracy([], []) == 1.0

    def test_mixed_label_types(self):
        assert grouping_accuracy([1, (1, 0), "x"], ["a", "b", "c"]) == 1.0

    def test_misaligned_raises(self):
        with pytest.raises(ValueError):
            grouping_accuracy([1], [1, 2])

    def test_single_log(self):
        assert grouping_accuracy([5], ["t"]) == 1.0
