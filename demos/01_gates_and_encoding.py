#!/usr/bin/env python3
"""Walk through the encoder front-end: normalize, binarize, gate layers.

Shows how a raw dBm fingerprint turns into a compact binary latent code and
how each latent bit traces back to a contiguous window of access points.
"""

import numpy as np

import lognet as ln


def main():
    # A toy fingerprint over 10 APs: three strong, the rest weak or missing.
    raw = np.array([-38.0, -42.0, -91.0, -88.0, -100.0, -45.0, -83.0, -79.0, -100.0, -95.0])
    print("raw dBm:       ", raw)

    norm = ln.normalize_values(raw)
    print("normalized:    ", np.round(norm, 2))

    # The activity bits are the depth-0 code over the 10 APs.
    bits = ln.LatentCode(ln.binarize_matrix(norm, threshold=0.5), 0, raw.size)
    print("activity bits: ", bits.bits)

    print("\ntruth tables (x y -> z):")
    for gate in ln.GateType:
        rows = [ln.apply_gate(x, y, gate) for x, y in ((0, 0), (0, 1), (1, 0), (1, 1))]
        print(f"  {gate.value:>4}: {rows}")

    print("\nlayered encoding of the bits above:")
    for gate in (ln.GateType.NOR, ln.GateType.AND, ln.GateType.XOR):
        for depth in (1, 2):
            code = ln.encode(bits, ln.LogicEncoderConfig(gate, 0.5, depth))
            print(f"  {gate.value:>4} depth {depth}: {code.bits}  (len {len(code)})")

    print("\nAP windows feeding each depth-2 latent bit:")
    for j in range(ln.ceil_chain(10, 2)):
        window = ln.trace_bit_to_aps(j, 2, 10)
        print(f"  bit {j} <- APs {list(window)}")


if __name__ == "__main__":
    main()
