"""Unit tests for Dataset/Partition."""

from repro.engine.dataset import Dataset, Partition


class TestPartition:
    def test_size_memoized(self):
        partition = Partition(0, [(1, 2)] * 10)
        first = partition.size_bytes()
        assert partition.size_bytes() == first
        assert first > 0

    def test_len(self):
        assert len(Partition(0, [(1,), (2,)])) == 2


class TestDataset:
    def make(self, partitioner=None, key=None):
        parts = [Partition(0, [(1, "a")], 0), Partition(1, [(2, "b")], 1)]
        return Dataset(parts, partitioner, key)

    def test_collect_in_partition_order(self):
        assert self.make().collect() == [(1, "a"), (2, "b")]

    def test_num_rows(self):
        assert self.make().num_rows() == 2

    def test_iteration(self):
        assert list(self.make()) == [(1, "a"), (2, "b")]
