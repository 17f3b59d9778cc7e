"""Unit tests for the MPC model configuration."""

import dataclasses
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mpc import MPCConfig, polylog


#: Every numpy integer width a caller might pass as a size.
NUMPY_INTS = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64]


class TestValidation:
    @pytest.mark.parametrize("phi", [0.0, 1.0, -0.2, 1.5])
    def test_phi_range(self, phi):
        with pytest.raises(ConfigurationError):
            MPCConfig(n=100, phi=phi)

    def test_min_vertices(self):
        with pytest.raises(ConfigurationError):
            MPCConfig(n=1)

    def test_bad_factors(self):
        with pytest.raises(ConfigurationError):
            MPCConfig(n=10, mem_factor=0)
        with pytest.raises(ConfigurationError):
            MPCConfig(n=10, total_memory_factor=-1)

    def test_bad_machine_override(self):
        with pytest.raises(ConfigurationError):
            MPCConfig(n=10, num_machines=0)

    @pytest.mark.parametrize("field, value", [
        ("n", 64.0), ("n", "64"), ("n", True),
        ("num_machines", 2.5), ("num_machines", "3"),
        ("num_machines", True),
    ])
    def test_non_integer_sizes_name_the_field(self, field, value):
        # Refused at construction instead of a deep TypeError on first
        # use (or silent acceptance).
        kwargs = {"n": 64, field: value}
        with pytest.raises(ConfigurationError, match=field):
            MPCConfig(**kwargs)

    def test_config_holds_only_the_model(self):
        # Where the work executes is chosen at the cluster or session
        # boundary, not in the model's parameters.
        assert [f.name for f in dataclasses.fields(MPCConfig)] == [
            "n", "phi", "mem_factor", "total_memory_factor",
            "strict_capacity", "seed", "num_machines"]

    @pytest.mark.parametrize("field, value", [
        ("phi", "x"), ("phi", float("nan")),
        ("mem_factor", float("nan")), ("mem_factor", float("inf")),
        ("mem_factor", "4"),
        ("total_memory_factor", float("nan")),
        ("total_memory_factor", float("inf")),
        ("seed", -1), ("seed", 1.5), ("seed", "0"), ("seed", True),
    ])
    def test_model_options_fail_by_name(self, field, value):
        # A ConfigurationError naming the field at construction, not an
        # AttributeError / OverflowError / bare ValueError later.
        with pytest.raises(ConfigurationError, match=field):
            MPCConfig(n=8, **{field: value})

    def test_real_options_stored_as_floats(self):
        config = MPCConfig(n=64, phi=np.float64(0.5), mem_factor=2,
                           seed=np.int64(3))
        assert type(config.phi) is float and config.phi == 0.5
        assert type(config.mem_factor) is float
        assert type(config.seed) is int and config.seed == 3
        assert config.local_memory == 16

    def test_numpy_integer_sizes_accepted(self):
        config = MPCConfig(n=np.int64(64), num_machines=np.int32(4))
        assert config.machine_count == 4

    @pytest.mark.parametrize("dtype", NUMPY_INTS)
    @pytest.mark.parametrize("field", ["n", "num_machines"])
    def test_numpy_sizes_are_stored_as_plain_ints(self, field, dtype):
        config = MPCConfig(**{"n": 100, field: dtype(100)})
        value = getattr(config, field)
        assert type(value) is int and value == 100

    @pytest.mark.parametrize("dtype", NUMPY_INTS)
    def test_narrow_numpy_n_runs_like_a_plain_int(self, dtype):
        # n * (n - 1) // 2 overflows an int8 / uint8 n = 100: the
        # config must hand every consumer a plain int.
        from repro.core import MPCConnectivity
        from repro.types import ins

        batch = [ins(3, 99), ins(10, 99), ins(40, 41), ins(0, 98)]
        runs = []
        for n in (100, dtype(100)):
            alg = MPCConnectivity(MPCConfig(n=n, seed=3))
            alg.apply_batch(list(batch))
            runs.append((alg.num_components(),
                         sorted(alg.forest.all_edges())))
        assert runs[0] == runs[1]
        assert runs[0][0] == 100 - len(batch)


class TestDerivedQuantities:
    def test_local_memory_scales_with_phi(self):
        small = MPCConfig(n=4096, phi=0.25).local_memory
        large = MPCConfig(n=4096, phi=0.75).local_memory
        assert small < large

    def test_local_memory_formula(self):
        config = MPCConfig(n=256, phi=0.5, mem_factor=2.0)
        assert config.local_memory == math.ceil(2.0 * 16)

    def test_machine_count_covers_budget(self):
        config = MPCConfig(n=1024, phi=0.5)
        total = config.machine_count * config.local_memory
        assert total >= config.total_memory_budget

    def test_machine_count_override(self):
        config = MPCConfig(n=64, num_machines=5)
        assert config.machine_count == 5

    def test_batch_bound_is_local_memory(self):
        config = MPCConfig(n=400, phi=0.5)
        assert config.batch_bound == config.local_memory

    def test_paper_batch_bound_smaller(self):
        config = MPCConfig(n=2 ** 16, phi=0.5)
        assert config.paper_batch_bound() <= config.batch_bound
        assert config.paper_batch_bound() >= 1

    def test_sketch_columns_grow_logarithmically(self):
        c1 = MPCConfig(n=64).sketch_columns
        c2 = MPCConfig(n=4096).sketch_columns
        assert c1 < c2
        assert c2 <= 4 * math.log2(4096)

    def test_fanout_floor(self):
        config = MPCConfig(n=16, phi=0.25, mem_factor=1.0)
        assert config.fanout(words_per_message=10 ** 6) == 2

    def test_describe_mentions_key_figures(self):
        config = MPCConfig(n=64, phi=0.5)
        text = config.describe()
        assert "n=64" in text and "phi=0.5" in text


class TestPolylog:
    def test_tiny_n(self):
        assert polylog(1) == 1.0
        assert polylog(2) == 1.0

    def test_formula(self):
        assert polylog(256, power=2) == pytest.approx(64.0)
