#!/usr/bin/env python3
"""Diff the latent codes of neighboring reference points and trace the
differing bits back to the access points responsible.

Also exports the per-RP latent matrix as a binary-pixel PGM bitmap, one row
per reference point, for visual inspection.
"""

import tempfile
from pathlib import Path

import lognet as ln
from lognet.pipeline import encode_rss


def main():
    ds, _ = ln.synth_dataset(ln.SynthSpec(num_rps=10, num_aps=20, fingerprints_per_rp=6, seed=3))
    encoder = ln.LogicEncoderConfig(ln.GateType.NOR, threshold=0.5, hidden_layers=1)

    # One latent row per fingerprint, then one majority row per RP (sorted by id).
    rp_ids, majorities = ln.majority_by_rp(ds.rp_id, encode_rss(ds.rss_matrix(), encoder))
    codes = {rp: ln.LatentCode(row, encoder.hidden_layers, ds.ap_count)
             for rp, row in zip(rp_ids, majorities)}

    print("latent matrix (rows = RPs):")
    for rp, code in codes.items():
        print(f"  rp {rp:>2}: {''.join(str(b) for b in code.bits)}")

    for rp_a, rp_b in ((4, 5), (8, 9)):
        diff = ln.LatentDiff.between(codes[rp_a], codes[rp_b], rp_a, rp_b)
        print()
        print(diff.format_table())

    out = Path(tempfile.mkdtemp(prefix="lognet-demo-")) / "latent_bitmap.pgm"
    ln.write_latent_bitmap(majorities, out)
    print(f"\nbitmap written to {out}")


if __name__ == "__main__":
    main()
