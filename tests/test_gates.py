import numpy as np
import pytest

from lognet import (
    BoundsError,
    ConfigError,
    ExperimentConfig,
    GateType,
    TRUTH_TABLES,
    LatentCode,
    LatentDiff,
    LogicEncoderConfig,
    SynthSpec,
    ValidationError,
    apply_gate,
    binarize_matrix,
    ceil_chain,
    dnn_hidden_widths,
    encode,
    encode_matrix,
    gate_arithmetic,
    normalize_values,
    majority_by_rp,
    trace_bit_to_aps,
    write_latent_bitmap,
)
from lognet.gates import ap_window, check_bits, encode_layer_matrix

ALL_GATES = list(GateType)
ALL_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def one_layer(bits, gate: GateType) -> np.ndarray:
    """One gate layer over a 1-D bit vector, run through `encode`."""
    bits = np.asarray(bits)
    return encode(LatentCode(bits, 0, bits.size), LogicEncoderConfig(gate)).bits


class TestGateTables:
    def test_reference_rows(self):
        assert apply_gate(1, 1, GateType.AND) == 1
        assert apply_gate(0, 0, GateType.NOR) == 1
        assert apply_gate(1, 1, GateType.XOR) == 0

    def test_arithmetic_forms_match_tables_on_all_24_cases(self):
        for gate in ALL_GATES:
            for x, y in ALL_PAIRS:
                assert gate_arithmetic(x, y, gate) == apply_gate(x, y, gate), (gate, x, y)

    def test_complement_laws(self):
        pairs = [
            (GateType.NAND, GateType.AND),
            (GateType.NOR, GateType.OR),
            (GateType.XNOR, GateType.XOR),
        ]
        for negated, base in pairs:
            for x, y in ALL_PAIRS:
                assert apply_gate(x, y, negated) == 1 - apply_gate(x, y, base)

    def test_vectorized_path_matches_scalar(self):
        for gate in ALL_GATES:
            vec = one_layer(np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8), gate)
            scalar = [apply_gate(x, y, gate) for x, y in ALL_PAIRS]
            assert vec.tolist() == scalar

    def test_non_bit_input_rejected(self):
        with pytest.raises(ValidationError):
            apply_gate(2, 0, GateType.AND)

    def test_float_and_bool_bits_count_as_bits(self):
        for gate in ALL_GATES:
            for fn in (apply_gate, gate_arithmetic):
                for x, y in ((1.0, 0), (True, False), (0.0, 1.0), (False, True)):
                    got = fn(x, y, gate)
                    assert got == TRUTH_TABLES[gate][2 * int(x) + int(y)], (fn, gate, x, y)
                    assert type(got) is int
                with pytest.raises(ValidationError):
                    fn(2, 0, gate)

    def test_gate_names_round_trip(self):
        assert GateType.from_name("NOR") is GateType.NOR
        with pytest.raises(ConfigError):
            GateType.from_name("nandor")


class TestRaggedBits:
    """A ragged row list fails as the bit check's own ValidationError at every caller, not as
    numpy's inhomogeneous-shape ValueError."""

    RAGGED = [[0, 1], [1]]

    @pytest.mark.parametrize("call", [
        lambda bits, path: check_bits(bits),
        lambda bits, path: LatentCode(bits, 0, 2),
        lambda bits, path: majority_by_rp([0, 1], bits),
        lambda bits, path: write_latent_bitmap(bits, path),
        lambda bits, path: encode_matrix(bits, GateType.NOR, 1),
    ], ids=["check_bits", "LatentCode", "majority_by_rp", "write_latent_bitmap", "encode_matrix"])
    def test_ragged_rows_are_a_validation_error(self, tmp_path, call):
        path = tmp_path / "bits.pgm"
        message = r"^bits must be a rectangular array, got \[\[0, 1\], \[1\]\]$"
        with pytest.raises(ValidationError, match=message):
            call(self.RAGGED, path)
        assert not path.exists()


class TestEncodeLayer:
    def test_nor_pairs_by_hand(self):
        # (1,0) and (1,1) rows of the NOR table are both 0.
        assert one_layer(np.array([1, 0, 1, 1]), GateType.NOR).tolist() == [0, 0]

    def test_odd_length_pads_with_zero(self):
        # [1,1,1] -> [1,1,1,0]; AND rows (1,1)->1 and (1,0)->0.
        assert one_layer(np.array([1, 1, 1]), GateType.AND).tolist() == [1, 0]

    def test_single_bit_pads(self):
        assert one_layer(np.array([0]), GateType.OR).tolist() == [0]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            one_layer(np.array([], dtype=np.uint8), GateType.AND)

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            one_layer(np.array([0, 2]), GateType.AND)

    def test_shape_law(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 400))
            bits = rng.integers(0, 2, n).astype(np.uint8)
            gate = ALL_GATES[int(rng.integers(len(ALL_GATES)))]
            assert one_layer(bits, gate).size == (n + 1) // 2


class TestEncode:
    def test_building_scale_latent_length(self):
        bf = LatentCode(np.zeros(164, dtype=np.uint8), 0, 164)
        assert len(encode(bf, LogicEncoderConfig(GateType.NOR, 0.5, 1))) == 82
        assert len(encode(bf, LogicEncoderConfig(GateType.NOR, 0.5, 2))) == 41

    def test_all_zero_and_stays_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(1, 200))
            bf = LatentCode(np.zeros(n, dtype=np.uint8), 0, n)
            depth = int(rng.integers(1, 5))
            code = encode(bf, LogicEncoderConfig(GateType.AND, 0.5, depth))
            assert not code.bits.any()

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, 97).astype(np.uint8)
        bf = LatentCode(bits, 0, 97)
        cfg = LogicEncoderConfig(GateType.XNOR, 0.5, 3)
        assert encode(bf, cfg) == encode(bf, cfg)

    def test_matrix_path_matches_vector_path(self):
        rng = np.random.default_rng(6)
        B = rng.integers(0, 2, (20, 51)).astype(np.uint8)
        for gate in ALL_GATES:
            batch = encode_matrix(B, gate, 2)
            for row_in, row_out in zip(B, batch):
                bf = LatentCode(row_in, 0, 51)
                assert encode(bf, LogicEncoderConfig(gate, 0.5, 2)).bits.tolist() == row_out.tolist()

    def test_a_uint8_matrix_is_checked_like_any_other(self):
        with pytest.raises(ValidationError, match="^bits must contain only 0 and 1$"):
            encode_matrix(np.array([[2, 0, 255, 1]], np.uint8), GateType.OR, 1)

    def test_a_bool_matrix_encodes_like_its_uint8_twin(self):
        rng = np.random.default_rng(12)
        B = rng.integers(0, 2, (7, 23)).astype(np.bool_)
        for bits in (B, B[:, ::2], np.asfortranarray(B)):
            for gate in ALL_GATES:
                for depth in (1, 2, 3):
                    got = encode_matrix(bits, gate, depth)
                    expected = encode_matrix(bits.astype(np.uint8), gate, depth)
                    assert got.dtype == np.uint8 and np.array_equal(got, expected)

    def test_latent_code_length_invariant(self):
        with pytest.raises(ValidationError):
            LatentCode(np.array([0, 1, 0]), depth=1, input_len=164)

    def test_width_message_survives_an_input_len_too_long_for_str(self):
        with pytest.raises(ValidationError, match="over <int too long to show> inputs"):
            LatentCode(np.zeros(2, np.uint8), 1, 10**5000)

    def test_code_bits_must_form_a_non_empty_vector(self):
        with pytest.raises(ValidationError):
            LatentCode(np.zeros((1, 2), np.uint8), 1, 4)
        with pytest.raises(ValidationError):
            LatentCode([], 0, 0)

    def test_activity_bits_are_the_depth_0_code(self):
        bf = LatentCode([1, 0, 1], 0, 3)
        assert bf == LatentCode(np.array([1, 0, 1], np.uint8), 0, 3)
        assert bf.depth == 0 and bf.input_len == 3

    def test_encode_adds_its_layers_to_the_code_depth(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 120))
            d, h = int(rng.integers(0, 4)), int(rng.integers(1, 4))
            gate = ALL_GATES[int(rng.integers(len(ALL_GATES)))]
            bits = rng.integers(0, 2, ceil_chain(n, d)).astype(np.uint8)
            code = encode(LatentCode(bits, d, n), LogicEncoderConfig(gate, 0.5, h))
            assert (code.depth, code.input_len) == (d + h, n)
            assert code.bits.tolist() == encode_matrix(bits[None, :], gate, h)[0].tolist()


class TestEncoderDepth:
    @staticmethod
    def layer_by_layer(bits, gate, depth):
        for _ in range(depth):
            bits = encode_layer_matrix(bits, gate)
        return bits

    def test_matches_one_layer_at_a_time(self):
        rng = np.random.default_rng(10)
        for width in range(1, 20):
            B = rng.integers(0, 2, (6, width)).astype(np.uint8)
            for gate in ALL_GATES:
                for depth in range(1, 14):
                    assert np.array_equal(
                        encode_matrix(B, gate, depth), self.layer_by_layer(B, gate, depth)
                    ), (width, gate, depth)

    def test_huge_depth_acts_like_a_small_one_of_the_same_parity(self):
        # Width 19 reaches 1 after 5 layers, so depths 12 and 13 are already
        # past it.
        rng = np.random.default_rng(11)
        B = rng.integers(0, 2, (8, 19)).astype(np.uint8)
        for gate in ALL_GATES:
            for huge, small in ((10**12, 12), (10**12 + 1, 13)):
                assert np.array_equal(
                    encode_matrix(B, gate, huge), self.layer_by_layer(B, gate, small)
                ), (gate, huge)


# Every entry that takes an encoder or dense-baseline depth, each with its own call.
DEPTH_ENTRIES = {
    "encode_matrix": lambda h: encode_matrix(np.ones((1, 4), np.uint8), GateType.NOR, h),
    "LogicEncoderConfig": lambda h: LogicEncoderConfig(GateType.NOR, 0.5, h),
    "dnn_hidden_widths": lambda h: dnn_hidden_widths(4, h),
    "validate": lambda h: ExperimentConfig(synth=SynthSpec(4, 8), hidden_layers=h).validate(),
}


class TestOneDepthRule:
    """`check_depth` is the one `hidden_layers` rule: each entry fails alike, a numpy int passes."""

    @pytest.mark.parametrize("bad", [0, 1.5, 1.0, True], ids=["0", "1.5", "1.0", "True"])
    @pytest.mark.parametrize("entry", DEPTH_ENTRIES)
    def test_every_entry_keeps_the_rule(self, entry, bad):
        # A float or a bool fails the settings classes' type rule first, which says the same.
        message = rf"hidden_layers must be an integer( >= 1)?, got {bad!r}$"
        with pytest.raises(ConfigError, match=message) as err:
            DEPTH_ENTRIES[entry](bad)
        if entry == "validate":
            assert str(err.value).startswith("config key 'model.hidden_layers': ")
        DEPTH_ENTRIES[entry](np.int64(2))


class TestCeilChain:
    def test_known_values(self):
        assert ceil_chain(164, 1) == 82
        assert ceil_chain(164, 2) == 41
        assert ceil_chain(1, 5) == 1

    def test_matches_direct_formula(self):
        # Iterated ceil-halving equals ceil(n / 2**h).
        for n in (1, 2, 3, 17, 164, 1000):
            for h in range(7):
                assert ceil_chain(n, h) == -(-n // (1 << h))

    @pytest.mark.parametrize("length,depth", [(3.5, 1), (3, 1.0), (True, 1), (3, True), ("3", 1)])
    def test_rejects_a_non_integer(self, length, depth):
        with pytest.raises(ValidationError, match="must be a (positive|non-negative) integer, got "):
            ceil_chain(length, depth)


class TestTrace:
    def test_reference_windows(self):
        assert trace_bit_to_aps(12, 1, 164) == range(24, 26)
        assert trace_bit_to_aps(0, 1, 164) == range(0, 2)
        assert trace_bit_to_aps(81, 1, 164) == range(162, 164)

    def test_padding_truncates_window(self):
        assert trace_bit_to_aps(1, 1, 3) == range(2, 3)

    def test_out_of_range_bit(self):
        with pytest.raises(BoundsError):
            trace_bit_to_aps(82, 1, 164)

    @pytest.mark.parametrize("bad", ["a", 1.5, True, None, -10**5000],
                             ids=["str", "1.5", "True", "None", "-huge"])
    def test_bit_index_that_is_no_integer_is_out_of_range(self, bad):
        with pytest.raises(BoundsError, match="^bit_index .* out of range for latent length 82$"):
            trace_bit_to_aps(bad, 1, 164)

    @pytest.mark.parametrize("depth", [70, 10**21])
    def test_depth_past_the_input_bit_length(self, depth):
        # Windows are clipped at the input length, so a deep latent's one
        # window covers every input without building a 2**depth integer.
        assert trace_bit_to_aps(0, depth, 164) == range(0, 164)
        assert ap_window(0, depth, 5) == range(0, 5)
        a, b = LatentCode([0], depth, 164), LatentCode([1], depth, 164)
        assert LatentDiff.between(a, b, 0, 1).ap_windows == (range(0, 164),)

    def test_windows_are_never_empty(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            h = int(rng.integers(1, 6))
            for j in range(ceil_chain(n, h)):
                w = trace_bit_to_aps(j, h, n)
                assert len(w) >= 1 and w.stop <= n

    def test_locality_outside_flips_never_change_bit(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(2, 180))
            h = int(rng.integers(1, 5))
            gate = ALL_GATES[int(rng.integers(len(ALL_GATES)))]
            bits = rng.integers(0, 2, n).astype(np.uint8)
            j = int(rng.integers(ceil_chain(n, h)))
            window = trace_bit_to_aps(j, h, n)
            outside = np.setdiff1d(np.arange(n), np.arange(window.start, window.stop))
            if outside.size == 0:
                continue
            flips = rng.choice(outside, size=int(rng.integers(1, outside.size + 1)), replace=False)
            mutated = bits.copy()
            mutated[flips] ^= 1
            cfg = LogicEncoderConfig(gate, 0.5, h)
            before = encode(LatentCode(bits, 0, n), cfg).bits[j]
            after = encode(LatentCode(mutated, 0, n), cfg).bits[j]
            assert before == after

    def test_inside_flips_can_change_bit(self):
        # With OR over an all-zero input, any real in-window flip turns bit j on.
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 180))
            h = int(rng.integers(1, 5))
            j = int(rng.integers(ceil_chain(n, h)))
            window = trace_bit_to_aps(j, h, n)
            bits = np.zeros(n, dtype=np.uint8)
            bits[int(rng.integers(window.start, window.stop))] = 1
            cfg = LogicEncoderConfig(GateType.OR, 0.5, h)
            assert encode(LatentCode(bits, 0, n), cfg).bits[j] == 1


class TestNoiseFiltering:
    def test_sub_threshold_perturbation_keeps_latent(self):
        # Raw-dBm jitter that leaves every normalized value on the same side
        # of the threshold produces a bit-identical latent code.
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(2, 128))
            raw = rng.uniform(-100.0, 0.0, n)
            perturbed = np.where(
                raw >= -50.0, rng.uniform(-50.0, 0.0, n), rng.uniform(-100.0, -50.0001, n)
            )
            gate = ALL_GATES[int(rng.integers(len(ALL_GATES)))]
            depth = int(rng.integers(1, 4))
            cfg = LogicEncoderConfig(gate, 0.5, depth)
            codes = []
            for values in (raw, perturbed):
                bits = binarize_matrix(normalize_values(values)[None, :])[0]
                codes.append(encode(LatentCode(bits, 0, n), cfg))
            assert codes[0] == codes[1]
