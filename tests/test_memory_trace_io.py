"""Round-trip coverage for AccessTrace .npz serialization edge cases."""

import numpy as np
import pytest

from repro.memory import AccessTrace


class TestEmptyTrace:
    def test_empty_round_trip(self, tmp_path):
        path = AccessTrace().save(tmp_path / "empty.npz")
        restored = AccessTrace.load(path)
        assert len(restored) == 0
        assert restored.total_items == 0
        assert restored.labels() == []

    def test_empty_trace_extends_cleanly(self, tmp_path):
        restored = AccessTrace.load(AccessTrace().save(tmp_path / "e.npz"))
        restored.add(np.array([1, 2]), label="later")
        assert len(restored) == 1


class TestNonAsciiLabels:
    LABELS = ["λ-insert", "堆排序", "naïve", "🌲-sweep", ""]

    def test_unicode_labels_round_trip(self, tmp_path):
        trace = AccessTrace()
        for i, label in enumerate(self.LABELS):
            trace.add(np.arange(i + 1), label=label)
        restored = AccessTrace.load(trace.save(tmp_path / "unicode.npz"))
        assert [label for label, _ in restored] == self.LABELS
        for (_, a), (_, b) in zip(trace, restored):
            assert np.array_equal(a, b)

    def test_unicode_labels_survive_in_labels_index(self, tmp_path):
        trace = AccessTrace([("Δ", np.array([3])), ("Δ", np.array([5]))])
        restored = AccessTrace.load(trace.save(tmp_path / "d.npz"))
        assert restored.labels() == ["Δ"]


class TestRoundTripFidelity:
    def test_dtype_and_order_preserved(self, tmp_path):
        trace = AccessTrace()
        trace.add(np.array([2**40, 1, 0]), label="big")
        trace.add(np.array([7]), label="small")
        restored = AccessTrace.load(trace.save(tmp_path / "t.npz"))
        pairs = list(restored)
        assert pairs[0][0] == "big" and pairs[1][0] == "small"
        assert pairs[0][1].dtype == np.int64
        assert pairs[0][1][0] == 2**40

    def test_empty_access_still_rejected(self):
        with pytest.raises(ValueError):
            AccessTrace().add(np.array([]))

    def test_empty_access_rejected_on_load(self, tmp_path):
        path = tmp_path / "hollow.npz"
        np.savez_compressed(
            path,
            nodes=np.array([1, 2], dtype=np.int64),
            sizes=np.array([2, 0], dtype=np.int64),
            labels=np.frombuffer(b'["a", "b"]', dtype=np.uint8),
        )
        with pytest.raises(ValueError, match="non-empty"):
            AccessTrace.load(path)
