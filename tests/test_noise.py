import numpy as np
import pytest

from lognet import (
    RSS_SENTINEL,
    CapacityError,
    ConfigError,
    Dataset,
    GateType,
    LogicEncoderConfig,
    NoiseMode,
    NoiseSpec,
    SynthSpec,
    TemporalSchedule,
    ValidationError,
    beacon_tint_layout,
    inject_noise,
    simulate_cis,
    synth_dataset,
)
from lognet.noise import _random_patterns
from lognet.pipeline import LogNetClassifier
from lognet.models import DenseStack


class TestNoiseSpec:
    def test_ed_requires_scalar_delta(self):
        with pytest.raises(ValidationError):
            NoiseSpec(NoiseMode.ED, np.array([1.0, 2.0]))

    def test_non_ed_requires_vector_delta(self):
        with pytest.raises(ValidationError):
            NoiseSpec(NoiseMode.NON_ED, -3.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            NoiseSpec(NoiseMode.ED, -3.0, stochastic_sigma=-1.0)

    @pytest.mark.parametrize("field,args", [
        ("delta", (NoiseMode.NON_ED, [np.nan, 0.0])),
        ("delta", (NoiseMode.ED, np.nan)),
        ("stochastic_sigma", (NoiseMode.ED, 0.0, [1.0, np.inf])),
    ])
    def test_an_array_with_a_non_finite_entry_fails_as_its_list_does(self, field, args):
        message = f"^NoiseSpec.{field} must be a number or list\\[float\\] or an array, got "
        with pytest.raises(ConfigError, match=message):
            NoiseSpec(*args)
        with pytest.raises(ConfigError, match=message + "array"):
            NoiseSpec(*args[:-1], np.array(args[-1]))

    @pytest.mark.parametrize("args", [(NoiseMode.NON_ED, np.array(["a"])),
                                      (NoiseMode.ED, np.array("a")),
                                      (NoiseMode.ED, 0.0, np.array(["a", "b"])),
                                      (NoiseMode.NON_ED, np.array([10**400], dtype=object))],
                             ids=["non-ed-delta", "ed-delta", "sigma", "int-beyond-float64"])
    def test_an_array_of_non_numbers_fails_as_its_list_does(self, args):
        field = "delta" if len(args) == 2 else "stochastic_sigma"
        message = f"^NoiseSpec.{field} must be a number or list\\[float\\] or an array, got array"
        with pytest.raises(ConfigError, match=message):
            NoiseSpec(*args)

    @pytest.mark.parametrize("field", ["delta", "stochastic_sigma"])
    def test_per_ap_arrays_compare_by_value(self, field):
        def spec(values, seed=0):
            return NoiseSpec(NoiseMode.NON_ED, **{"delta": [1.0, 2.0], field: values}, seed=seed)

        assert spec([1.0, 2.0]) == spec(np.array([1.0, 2.0]))
        assert spec([1.0, 2.0]) != spec([1.0, 3.0])
        assert spec([1.0, 2.0]) != spec([1.0, 2.0, 2.0])
        assert spec([1.0, 2.0]) != spec([1.0, 2.0], seed=1)
        assert spec([1.0, 2.0]) != 1 and not spec([1.0, 2.0]) == 1

    def test_a_spec_holds_arrays_so_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(NoiseSpec(NoiseMode.ED, -4.0, 1.0))

    def test_scaled_preserves_structure(self):
        spec = NoiseSpec(NoiseMode.NON_ED, np.array([-2.0, 4.0]), 1.0, seed=3)
        half = spec.scaled(0.5)
        np.testing.assert_allclose(half.delta, [-1.0, 2.0])
        assert half.stochastic_sigma == 0.5 and half.seed == 3


class TestTemporalSchedule:
    def test_must_start_clean(self):
        with pytest.raises(ValidationError):
            TemporalSchedule(((0, 0.5),))
        with pytest.raises(ValidationError):
            TemporalSchedule(((1, 0.0),))

    def test_cis_strictly_increasing(self):
        with pytest.raises(ValidationError):
            TemporalSchedule(((0, 0.0), (2, 0.1), (2, 0.2)))

    def test_default_covers_ten_cis(self):
        sched = TemporalSchedule.default()
        assert sched.cis == tuple(range(10))
        mults = [m for _, m in sched.entries]
        assert mults[0] == 0.0 and all(b >= a for a, b in zip(mults, mults[1:]))


class TestSynth:
    def test_minimal_two_rp_instance(self):
        ds, rp_map = synth_dataset(SynthSpec(num_rps=2, num_aps=2, fingerprints_per_rp=1, strong_width=1))
        patterns = {tuple(fp.rss) for fp in ds}
        assert len(patterns) == 2
        assert rp_map.coords(1)[0] == 1.0

    def test_building_scale_shapes(self):
        spec = SynthSpec(num_rps=61, num_aps=164, fingerprints_per_rp=6, seed=1)
        ds, rp_map = synth_dataset(spec)
        assert ds.ap_count == 164
        assert len(ds.rp_ids) == 61
        assert len(ds) == 61 * 6
        assert rp_map.rp_ids == ds.rp_ids

    def test_deterministic(self):
        spec = SynthSpec(num_rps=5, num_aps=12, seed=9, base_pattern="random")
        assert synth_dataset(spec)[0] == synth_dataset(spec)[0]

    def test_patterns_pairwise_distinct(self):
        for pattern in ("window", "random", "beacon-tint"):
            spec = SynthSpec(num_rps=8, num_aps=32, fingerprints_per_rp=1, base_pattern=pattern)
            ds, _ = synth_dataset(spec)
            rows = {fp.rss.tobytes() for fp in ds}
            assert len(rows) == 8

    def test_window_capacity_error(self):
        with pytest.raises(CapacityError):
            synth_dataset(SynthSpec(num_rps=12, num_aps=8, strong_width=4))

    def test_grid_geometry(self):
        _, rp_map = synth_dataset(SynthSpec(num_rps=5, num_aps=8, geometry="grid"))
        coords = {tuple(rp_map.coords(rp)) for rp in range(5)}
        assert len(coords) == 5

    def test_jitter_spreads_fingerprints(self):
        spec = SynthSpec(num_rps=2, num_aps=4, fingerprints_per_rp=3, jitter_sigma_db=1.0, seed=2)
        ds, _ = synth_dataset(spec)
        rows = {fp.rss.tobytes() for fp in ds}
        assert len(rows) == 6

    def test_beacon_tint_layout_partitions_aps(self):
        spec = SynthSpec(num_rps=16, num_aps=32, base_pattern="beacon-tint")
        layout = beacon_tint_layout(spec)
        all_aps = np.concatenate([layout["volatile"], layout["beacon"], layout["window"]])
        assert sorted(all_aps.tolist()) == list(range(32))
        assert len(layout["rp_window_pairs"]) == 16

    def test_beacon_tint_capacity(self):
        with pytest.raises(CapacityError):
            synth_dataset(SynthSpec(num_rps=30, num_aps=16, base_pattern="beacon-tint"))

    def test_beacon_tint_int_levels_keep_the_fractional_ramp(self):
        # A JSON config gives whole-dB levels as ints.
        common = dict(num_rps=4, num_aps=16, base_pattern="beacon-tint")
        ints, _ = synth_dataset(SynthSpec(**common, weak_dbm=-85, strong_dbm=-40, tint_span_db=10))
        floats, _ = synth_dataset(
            SynthSpec(**common, weak_dbm=-85.0, strong_dbm=-40.0, tint_span_db=10.0)
        )
        assert np.array_equal(ints.rss, floats.rss)
        volatile = beacon_tint_layout(SynthSpec(**common))["volatile"][0]
        np.testing.assert_allclose(
            np.unique(ints.rss[:, volatile]), [-85.0, -85.0 + 10 / 3, -85.0 + 20 / 3, -75.0]
        )


class TestInjectNoise:
    def _ds(self):
        return Dataset.from_columns(
            [0, 1], ["d", "d"], [0, 0], [[-40.0, -60.0, RSS_SENTINEL], [-70.0, RSS_SENTINEL, -55.0]]
        )

    def test_zero_noise_is_identity(self):
        ds = self._ds()
        assert inject_noise(ds, NoiseSpec(NoiseMode.ED, 0.0, 0.0)) == ds

    def test_ed_shifts_all_detected_by_delta(self):
        ds = self._ds()
        noisy = inject_noise(ds, NoiseSpec(NoiseMode.ED, -5.0, 0.0))
        np.testing.assert_allclose(noisy.rss[0], [-45.0, -65.0, RSS_SENTINEL])
        np.testing.assert_allclose(noisy.rss[1], [-75.0, RSS_SENTINEL, -60.0])

    def test_non_ed_is_component_wise(self):
        ds = self._ds()
        delta = np.array([-5.0, 0.0, 0.0])
        noisy = inject_noise(ds, NoiseSpec(NoiseMode.NON_ED, delta, 0.0))
        np.testing.assert_allclose(noisy.rss[0], [-45.0, -60.0, RSS_SENTINEL])

    def test_sentinel_never_resurrected(self):
        ds = self._ds()
        noisy = inject_noise(ds, NoiseSpec(NoiseMode.ED, 30.0, 5.0, seed=1))
        assert noisy.rss[0][2] == RSS_SENTINEL
        assert noisy.rss[1][1] == RSS_SENTINEL

    def test_delta_length_mismatch(self):
        with pytest.raises(ValidationError):
            inject_noise(self._ds(), NoiseSpec(NoiseMode.NON_ED, np.array([1.0, 2.0]), 0.0))

    def test_seed_determinism_and_finiteness(self):
        ds = self._ds()
        spec = NoiseSpec(NoiseMode.ED, -2.0, 3.0, seed=7)
        a, b = inject_noise(ds, spec), inject_noise(ds, spec)
        assert a == b
        assert all(np.isfinite(fp.rss).all() for fp in a)

    @pytest.mark.parametrize("bad", ["a", None, NoiseMode.ED], ids=["str", "None", "mode"])
    def test_spec_that_is_no_noise_spec(self, bad):
        with pytest.raises(ConfigError, match=f"^spec must be a NoiseSpec, got {bad!r}$"):
            inject_noise(self._ds(), bad)

    def test_per_ap_sigma_vector(self):
        ds = self._ds()
        sigma = np.array([0.0, 2.0, 1.0])
        noisy = inject_noise(ds, NoiseSpec(NoiseMode.ED, 0.0, sigma, seed=5))
        # sigma 0 on AP 0 leaves it at the pure deterministic value
        assert noisy.rss[0][0] == -40.0
        assert noisy.rss[0][1] != -60.0


class TestSimulateCis:
    def _clean(self):
        rss = [[-40.0 - rp, -70.0, -60.0] for rp in range(3)]
        return Dataset.from_columns(range(3), ["d"] * 3, [0] * 3, rss)

    def test_identity_schedule(self):
        ds = self._clean()
        out = simulate_cis(ds, NoiseSpec(NoiseMode.ED, -5.0, 1.0), TemporalSchedule(((0, 0.0),)))
        assert out == ds

    def test_ten_entries_cover_cis_0_to_9(self):
        ds = self._clean()
        out = simulate_cis(ds, NoiseSpec(NoiseMode.ED, -5.0, 0.0), TemporalSchedule.default())
        assert out.cis == tuple(range(10))
        assert len(out) == 10 * len(ds)

    def test_mean_deviation_grows_with_multiplier(self):
        ds = self._clean()
        sched = TemporalSchedule(((0, 0.0), (1, 0.3), (2, 0.7), (3, 1.0)))
        out = simulate_cis(ds, NoiseSpec(NoiseMode.ED, -6.0, 0.0), sched)
        base = ds.rss_matrix()
        devs = []
        for ci in range(4):
            devs.append(np.abs(out.with_ci(ci).rss_matrix() - base).mean())
        assert devs == sorted(devs) and devs[0] == 0.0

    def test_rejects_multi_ci_input(self):
        ds = Dataset.from_columns([0, 0], ["d", "d"], [1, 1], [[-40.0], [-40.0]])
        with pytest.raises(ValidationError):
            simulate_cis(ds, NoiseSpec(NoiseMode.ED, 0.0), TemporalSchedule.default())

    def test_schedule_order_independent_seeds(self):
        ds = self._clean()
        base = NoiseSpec(NoiseMode.ED, -4.0, 2.0, seed=11)
        full = simulate_cis(ds, base, TemporalSchedule(((0, 0.0), (1, 0.5), (2, 1.0))))
        short = simulate_cis(ds, base, TemporalSchedule(((0, 0.0), (2, 1.0))))
        assert full.with_ci(2) == short.with_ci(2)


    @pytest.mark.parametrize("bad", ["a", None], ids=["str", "None"])
    def test_arguments_of_the_wrong_type_are_named(self, bad):
        base, sched = NoiseSpec(NoiseMode.ED, -5.0, 0.0), TemporalSchedule.default()
        with pytest.raises(ConfigError, match=f"^base must be a NoiseSpec, got {bad!r}$"):
            simulate_cis(self._clean(), bad, sched)
        with pytest.raises(ConfigError, match=f"^sched must be a TemporalSchedule, got {bad!r}$"):
            simulate_cis(self._clean(), base, bad)


class TestSubThresholdInvariance:
    def test_non_ed_sub_threshold_deltas_keep_latents(self):
        spec = SynthSpec(num_rps=8, num_aps=16, fingerprints_per_rp=2, seed=3)
        ds, _ = synth_dataset(spec)
        # Strong APs sit at -40 (margin 10 dB above the -50 cutoff), weak at
        # -85 (35 dB below); these deltas cannot move anything across.
        rng = np.random.default_rng(0)
        delta = rng.uniform(-8.0, 8.0, 16)
        encoder = LogicEncoderConfig(GateType.NOR, 0.5, 1)
        head = DenseStack(((np.zeros((8, 8)), np.zeros(8)),), tuple(range(8)))
        clf = LogNetClassifier(encoder, head, ap_count=16)
        noisy = inject_noise(ds, NoiseSpec(NoiseMode.NON_ED, delta, 0.0))
        assert np.array_equal(clf.latent_matrix(ds), clf.latent_matrix(noisy))


class TestColumnarNoiseMatchesPerRowReference:
    """The matrix forms draw the same random numbers as the per-row loops they replaced."""

    def test_synth_jitter(self):
        spec = SynthSpec(num_rps=6, num_aps=11, fingerprints_per_rp=3, seed=4,
                         base_pattern="random", jitter_sigma_db=2.0)
        ds, _ = synth_dataset(spec)
        rng = np.random.default_rng(spec.seed)
        base = np.where(_random_patterns(spec, rng), spec.strong_dbm, spec.weak_dbm)
        rows = [base[rp] + rng.normal(0.0, 2.0, 11) for rp in range(6) for _ in range(3)]
        assert ds.rss_matrix().tobytes() == np.stack(rows).tobytes()
        assert ds.rp_id.tolist() == [rp for rp in range(6) for _ in range(3)]

    def test_integer_dbm_levels_take_jitter(self):
        ints = SynthSpec(num_rps=4, num_aps=8, seed=1, strong_dbm=-40, weak_dbm=-85,
                         jitter_sigma_db=1.0)
        floats = SynthSpec(num_rps=4, num_aps=8, seed=1, jitter_sigma_db=1.0)
        assert synth_dataset(ints)[0] == synth_dataset(floats)[0]

    @pytest.mark.parametrize("spec", [
        NoiseSpec(NoiseMode.ED, -3.0, 1.5, seed=2),
        NoiseSpec(NoiseMode.NON_ED, np.array([1.0, -2.0, 0.5]), np.array([0.0, 1.0, 2.0]), seed=3),
        NoiseSpec(NoiseMode.ED, 4.0, 0.0),
    ])
    def test_inject_noise(self, spec):
        rss = [[-40.0 - rp, RSS_SENTINEL, -60.0 + rp] for rp in range(5)]
        ds = Dataset.from_columns(range(5), ["d"] * 5, [0] * 5, rss)
        rng = np.random.default_rng(spec.seed)
        sigma = np.broadcast_to(np.asarray(spec.stochastic_sigma, dtype=np.float64), (3,))
        rows = []
        for fp in ds:
            offset = np.full(3, spec.delta) if spec.mode is NoiseMode.ED else spec.delta
            if np.any(sigma > 0):
                offset = offset + rng.normal(0.0, 1.0, 3) * sigma
            rows.append(np.where(fp.rss != RSS_SENTINEL, fp.rss + offset, fp.rss))
        assert inject_noise(ds, spec).rss_matrix().tobytes() == np.stack(rows).tobytes()

    def test_overflowing_noise_is_rejected(self):
        ds = Dataset.from_columns([0], ["d"], [0], [[-1e308]])
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="finite"):
            inject_noise(ds, NoiseSpec(NoiseMode.ED, -1e308, 0.0))
