"""Binary logic gates and the layered pairwise fingerprint encoder."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import (DEFAULT_THRESHOLD, _check_fields, _enum_named, _has_type, _must_be, _same,
                   _shown, check_threshold)
from .errors import BoundsError, ConfigError, ValidationError


class GateType(Enum):
    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"

    @classmethod
    def from_name(cls, name: str) -> "GateType":
        return _enum_named(cls, "gate", name)


# Four-row truth tables indexed by 2*x + y, i.e. rows (0,0), (0,1), (1,0), (1,1).
TRUTH_TABLES: dict[GateType, tuple[int, int, int, int]] = {
    GateType.AND: (0, 0, 0, 1),
    GateType.OR: (0, 1, 1, 1),
    GateType.NAND: (1, 1, 1, 0),
    GateType.NOR: (1, 0, 0, 0),
    GateType.XOR: (0, 1, 1, 0),
    GateType.XNOR: (1, 0, 0, 1),
}

# The same gates as closed-form expressions. `x + y` is the Boolean sum, which
# saturates at 1, so OR and NOR stay within {0, 1}.
GATE_FORMULAS = {
    GateType.AND: lambda x, y: x * y,
    GateType.OR: lambda x, y: min(x + y, 1),
    GateType.NAND: lambda x, y: 1 - x * y,
    GateType.NOR: lambda x, y: 1 - min(x + y, 1),
    GateType.XOR: lambda x, y: x * (1 - y) + (1 - x) * y,
    GateType.XNOR: lambda x, y: x * y + (1 - x) * (1 - y),
}


def _bit_pair(x, y) -> tuple[int, int]:
    """A gate's inputs as ints; anything equal to 0 or 1 (1.0, True) counts as that bit."""
    if x not in (0, 1) or y not in (0, 1):
        raise ValidationError(f"gate inputs must be bits, got ({x}, {y})")
    return int(x), int(y)


def apply_gate(x: int, y: int, gate: GateType) -> int:
    """Evaluate one gate on a bit pair via its truth table."""
    x, y = _bit_pair(x, y)
    return TRUTH_TABLES[gate][2 * x + y]


def gate_arithmetic(x: int, y: int, gate: GateType) -> int:
    """Evaluate one gate through its closed-form expression."""
    return GATE_FORMULAS[gate](*_bit_pair(x, y))


_ONE = np.uint8(1)


def _gate_columns(left: np.ndarray, right: np.ndarray, gate: GateType) -> np.ndarray:
    """Vectorized gate over aligned uint8 bit arrays."""
    if gate is GateType.AND:
        return left & right
    if gate is GateType.OR:
        return left | right
    if gate is GateType.NAND:
        return (left & right) ^ _ONE
    if gate is GateType.NOR:
        return (left | right) ^ _ONE
    if gate is GateType.XOR:
        return left ^ right
    if gate is GateType.XNOR:
        return (left ^ right) ^ _ONE
    raise ConfigError(f"unknown gate {gate!r}")


def encode_layer_matrix(bits: np.ndarray, gate: GateType) -> np.ndarray:
    """One encoder layer applied row-wise over a (samples, width) bit matrix.

    The gate runs over adjacent, non-overlapping bit pairs. A row of odd
    width gets a single 0 appended before pairing, so the output width is
    always ceil(width/2).
    """
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValidationError("encode_layer_matrix requires a non-empty 2-D bit matrix")
    if arr.shape[1] % 2 != 0:
        pad = np.zeros((arr.shape[0], 1), dtype=np.uint8)
        arr = np.hstack([arr, pad])
    pairs = arr.reshape(arr.shape[0], -1, 2)
    return _gate_columns(pairs[:, :, 0], pairs[:, :, 1], gate)


def check_bits(bits) -> np.ndarray:
    """`bits` as an array, checked to hold only 0 and 1."""
    bits = np.asarray(bits)
    if not ((bits == 0) | (bits == 1)).all():
        raise ValidationError("bits must contain only 0 and 1")
    return bits


def ceil_chain(length: int, depth: int) -> int:
    """Apply L -> ceil(L/2) `depth` times, i.e. ceil(length / 2**depth).

    Every depth of at least `length`'s bit length gives 1, so the shift is
    capped there and a huge depth builds no huge integer.
    """
    if not (_has_type(length, int) and length >= 1):
        raise ValidationError(_must_be("length", "a positive integer", length))
    if not (_has_type(depth, int) and depth >= 0):
        raise ValidationError(_must_be("depth", "a non-negative integer", depth))
    return -(-length // (1 << min(depth, int(length).bit_length())))


def check_depth(hidden_layers) -> None:
    """Raise ConfigError unless `hidden_layers` is an integer >= 1 by `_has_type`: a bool or a
    float is none, a numpy integer is one."""
    # An exact int takes the short path: `predict` runs this on every call.
    if not (type(hidden_layers) is int or _has_type(hidden_layers, int)) or hidden_layers < 1:
        raise ConfigError(_must_be("hidden_layers", "an integer >= 1", hidden_layers))


@dataclass(frozen=True)
class LogicEncoderConfig:
    """Fixed gate type, binarization threshold and number of logic layers."""

    gate: GateType
    threshold: float = DEFAULT_THRESHOLD
    hidden_layers: int = 1

    def __post_init__(self):
        _check_fields(self)
        check_threshold(self.threshold)
        check_depth(self.hidden_layers)


@dataclass(frozen=True, eq=False)
class LatentCode:
    """Bit vector after `depth` logic layers over `input_len` input bits.

    Depth 0 is a fingerprint's AP activity bits, one row of `binarize_matrix`.
    """

    bits: np.ndarray
    depth: int
    input_len: int

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.ndim != 1 or bits.size == 0:
            raise ValidationError("bits must form a non-empty 1-D vector")
        check_bits(bits)
        expected = ceil_chain(self.input_len, self.depth)
        if bits.size != expected:
            raise ValidationError(
                f"latent of depth {_shown(self.depth)} over {_shown(self.input_len)} inputs "
                f"must have {_shown(expected)} bits, got {bits.size}"
            )
        bits = bits.astype(np.uint8)
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return int(self.bits.size)

    def __eq__(self, other) -> bool:
        return _same(self, other, ("depth", "input_len", "bits"))


def encode(code: LatentCode, cfg: LogicEncoderConfig) -> LatentCode:
    """Run cfg's logic layers over a code; the result is `cfg.hidden_layers` deeper."""
    bits = encode_matrix(code.bits[None, :], cfg.gate, cfg.hidden_layers)[0]
    return LatentCode(bits, code.depth + cfg.hidden_layers, code.input_len)


def encode_matrix(bits: np.ndarray, gate: GateType, hidden_layers: int) -> np.ndarray:
    """Run the layered encoder over a (samples, aps) bit matrix.

    A layer at width 1 maps x to gate(x, 0), which is a constant, x or not x,
    so a run of two or more such layers acts like one or two of them (same
    parity). The layers past that point are therefore skipped in pairs, and
    the work stops growing with the depth once the width is 1.
    """
    check_depth(hidden_layers)
    out = encode_layer_matrix(bits, gate)  # validates the input
    rest = hidden_layers - 1
    to_one = (out.shape[1] - 1).bit_length()  # layers until the width is 1
    if rest > to_one + 2:
        rest = to_one + 2 - (rest - to_one) % 2
    for _ in range(rest):
        out = encode_layer_matrix(out, gate)
    return out


def trace_bit_to_aps(bit_index: int, depth: int, input_len: int) -> range:
    """Input AP window that can influence one latent bit.

    Latent bit j at depth h depends on no input outside the half-open window
    [j * 2**h, (j + 1) * 2**h) intersected with the real input range [0, n);
    positions beyond n are zero padding.
    """
    latent_len = ceil_chain(input_len, depth)
    if not (_has_type(bit_index, int) and 0 <= bit_index < latent_len):
        raise BoundsError(
            f"bit_index {_shown(bit_index)} out of range for latent length {latent_len}"
        )
    return ap_window(bit_index, depth, input_len)


def ap_window(bit_index: int, depth: int, input_len: int) -> range:
    """`trace_bit_to_aps` without the bounds check.

    Windows are clipped at `input_len`, so every depth of at least its bit
    length gives the same windows; capping the shift there keeps a huge depth
    from building a huge integer.
    """
    cap = int(input_len).bit_length()
    span = 1 << (depth if depth < cap else cap)  # not min(): this runs once per differing bit
    start = bit_index * span
    return range(start, min(start + span, input_len))
