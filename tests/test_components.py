"""Component-id array tests."""

import pytest

from repro.core import ComponentIds


class TestComponentIds:
    def test_initial_identity(self):
        comp = ComponentIds(5)
        assert [comp.id_of(v) for v in range(5)] == [0, 1, 2, 3, 4]

    def test_relabel_min_convention(self):
        comp = ComponentIds(6)
        new_id = comp.relabel_min([4, 2, 5])
        assert new_id == 2
        assert comp.same(4, 5) and comp.same(2, 4)
        assert not comp.same(0, 2)
        assert [comp.id_of(v) for v in range(6)] == [0, 1, 2, 3, 2, 2]

    def test_empty_relabel_min_rejected(self):
        comp = ComponentIds(3)
        with pytest.raises(ValueError):
            comp.relabel_min([])

    def test_words(self):
        assert ComponentIds(7).words == 7
