"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget."""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import lognet as ln
from lognet.models import init_dnn
from lognet.pipeline import fit_dnn, fit_lognet, load_model, save_model

ALL_GATES = list(ln.GateType)
ALL_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]


@contextmanager
def budget(name: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{name} took {elapsed:.2f}s, budget {seconds}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s < {seconds:.0f}s)")


def test_c1_gate_correctness():
    with budget("c1 gate-correctness", 1.0):
        # Truth tables: all 24 (pair x gate) cases against the reference rows.
        expected = {
            ln.GateType.AND: [0, 0, 0, 1],
            ln.GateType.OR: [0, 1, 1, 1],
            ln.GateType.NAND: [1, 1, 1, 0],
            ln.GateType.NOR: [1, 0, 0, 0],
            ln.GateType.XOR: [0, 1, 1, 0],
            ln.GateType.XNOR: [1, 0, 0, 1],
        }
        for gate in ALL_GATES:
            for (x, y), want in zip(ALL_PAIRS, expected[gate]):
                assert ln.apply_gate(x, y, gate) == want, (gate, x, y)
                assert ln.gate_arithmetic(x, y, gate) == want, (gate, x, y)
        # Complement laws.
        for x, y in ALL_PAIRS:
            assert ln.apply_gate(x, y, ln.GateType.NAND) == 1 - ln.apply_gate(x, y, ln.GateType.AND)
            assert ln.apply_gate(x, y, ln.GateType.NOR) == 1 - ln.apply_gate(x, y, ln.GateType.OR)
            assert ln.apply_gate(x, y, ln.GateType.XNOR) == 1 - ln.apply_gate(x, y, ln.GateType.XOR)


def test_c2_encoder_shape_law():
    with budget("c2 encoder-shape-law", 5.0):
        rng = np.random.default_rng(0)
        lengths = rng.integers(1, 1001, size=30)
        for n in lengths:
            n = int(n)
            bits = rng.integers(0, 2, n).astype(np.uint8)
            bf = ln.LatentCode(bits, 0, n)
            for gate in ALL_GATES:
                for depth in range(1, 7):
                    code = ln.encode(bf, ln.LogicEncoderConfig(gate, 0.5, depth))
                    assert len(code) == ln.ceil_chain(n, depth)
        bf = ln.LatentCode(rng.integers(0, 2, 164).astype(np.uint8), 0, 164)
        assert len(ln.encode(bf, ln.LogicEncoderConfig(ln.GateType.NOR, 0.5, 1))) == 82


def test_c3_locality_traceability():
    with budget("c3 locality-traceability", 10.0):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(2, 200))
            h = int(rng.integers(1, 5))
            gate = ALL_GATES[int(rng.integers(len(ALL_GATES)))]
            j = int(rng.integers(ln.ceil_chain(n, h)))
            window = ln.trace_bit_to_aps(j, h, n)
            bits = rng.integers(0, 2, n).astype(np.uint8)
            cfg = ln.LogicEncoderConfig(gate, 0.5, h)
            before = ln.encode(ln.LatentCode(bits, 0, n), cfg).bits[j]
            outside = np.setdiff1d(np.arange(n), np.arange(window.start, window.stop))
            if outside.size:
                flips = rng.choice(outside, int(rng.integers(1, outside.size + 1)), replace=False)
                mutated = bits.copy()
                mutated[flips] ^= 1
                after = ln.encode(ln.LatentCode(mutated, 0, n), cfg).bits[j]
                assert before == after, "outside flip changed a latent bit"
        # Flipping inside the window can change the bit: with OR over zeros,
        # raising any real in-window input turns latent bit j on.
        for _ in range(1000):
            n = int(rng.integers(2, 200))
            h = int(rng.integers(1, 5))
            j = int(rng.integers(ln.ceil_chain(n, h)))
            window = ln.trace_bit_to_aps(j, h, n)
            bits = np.zeros(n, dtype=np.uint8)
            bits[int(rng.integers(window.start, window.stop))] = 1
            cfg = ln.LogicEncoderConfig(ln.GateType.OR, 0.5, h)
            assert ln.encode(ln.LatentCode(bits, 0, n), cfg).bits[j] == 1


def test_c4_threshold_noise_filtering():
    with budget("c4 threshold-noise-filtering", 10.0):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(2, 128))
            raw = rng.uniform(-100.0, 0.0, n)
            # Random perturbation that keeps every normalized value on its
            # side of the 0.5 threshold (-50 dBm raw).
            perturbed = np.where(
                raw >= -50.0, rng.uniform(-50.0, 0.0, n), rng.uniform(-100.0, -50.0001, n)
            )
            gate = ALL_GATES[int(rng.integers(len(ALL_GATES)))]
            depth = int(rng.integers(1, 4))
            cfg = ln.LogicEncoderConfig(gate, 0.5, depth)
            codes = []
            for values in (raw, perturbed):
                bits = ln.binarize_matrix(ln.normalize_values(values)[None, :])[0]
                codes.append(ln.encode(ln.LatentCode(bits, 0, n), cfg))
            assert codes[0] == codes[1], "sub-threshold perturbation changed the latent"


def test_c5_gradient_fidelity():
    with budget("c5 gradient-fidelity", 30.0):
        rng = np.random.default_rng(3)
        for i in range(20):
            W = rng.normal(0.0, 0.4, size=(10, 5))
            b = rng.normal(0.0, 0.2, size=5)
            head = ln.DenseStack(((W, b),), tuple(range(5)))
            x = rng.integers(0, 2, 10).astype(np.float64)
            if not x.any():
                x[0] = 1.0
            label = int(rng.integers(5))
            dev = ln.gradient_check(head, (x, label), epsilon=1e-5)
            assert dev < 1e-5, f"softmax instance {i}: deviation {dev}"
        for i in range(20):
            model = init_dnn(12, 2, tuple(range(4)), seed=100 + i)
            x = rng.uniform(0.05, 0.95, 12)
            label = int(rng.integers(4))
            dev = ln.gradient_check(model, (x, label), epsilon=1e-5)
            assert dev < 1e-5, f"dnn instance {i}: deviation {dev}"


def test_c6_parameter_accounting():
    with budget("c6 parameter-accounting", 1.0):
        head = ln.DenseStack(((np.zeros((82, 61)), np.zeros(61)),), tuple(range(61)))
        assert ln.count_params(head) == 5063
        dnn = init_dnn(164, 1, tuple(range(61)), seed=0)
        assert ln.count_params(dnn) == 18593
        assert ln.model_size_bytes(head) == 5063 * 8

        # Fixed synthetic building: 8 RPs over 128 APs. Gate layers carry no
        # parameters, so deeper encoders shrink the softmax head; the dense
        # baseline grows with every extra hidden layer.
        classes = tuple(range(8))
        lognet_params = []
        dnn_params = []
        for depth in range(1, 5):
            latent = ln.ceil_chain(128, depth)
            lognet_params.append(
                ln.count_params(ln.DenseStack(((np.zeros((latent, 8)), np.zeros(8)),), classes))
            )
            dnn_params.append(ln.count_params(init_dnn(128, depth, classes, seed=0)))
        assert all(b < a for a, b in zip(lognet_params, lognet_params[1:])), lognet_params
        assert all(b > a for a, b in zip(dnn_params, dnn_params[1:])), dnn_params


def test_c7_synthetic_temporal_divergence():
    with budget("c7 synthetic-temporal-divergence", 300.0):
        spec = ln.SynthSpec(
            num_rps=16, num_aps=32, fingerprints_per_rp=6, seed=42, base_pattern="beacon-tint"
        )
        ds, rp_map = ln.synth_dataset(spec)
        layout = ln.beacon_tint_layout(spec)

        # Monotone non-ED drift: volatile APs (paired with always-on beacons,
        # hence provably latent-irrelevant) drift hard enough to cross the
        # threshold; the bit-discriminative beacon and window APs stay
        # comfortably sub-threshold (margins 10 dB at -40 dBm, 35 dB at -85).
        drng = np.random.default_rng(9)
        delta = np.zeros(32)
        delta[layout["volatile"]] = drng.uniform(30.0, 60.0, layout["volatile"].size)
        delta[layout["beacon"]] = -4.0
        delta[layout["window"]] = drng.uniform(-5.0, 5.0, layout["window"].size)
        sched = ln.TemporalSchedule(tuple((ci, ci / 9.0) for ci in range(10)))

        lognet_perfect = 0
        dnn_degraded = 0
        for seed in range(5):
            train, test = ln.split_train_test(ds, 1, seed)
            noise = ln.NoiseSpec(ln.NoiseMode.NON_ED, delta, 0.0, seed=100 + seed)
            test_cis = ln.simulate_cis(test, noise, sched)

            clf, _ = fit_lognet(
                train,
                ln.LogicEncoderConfig(ln.GateType.NOR, 0.5, 1),
                ln.TrainConfig(epochs=150, learning_rate=0.01, seed=seed),
            )
            # Latents are provably unchanged by the drift: check bit-exact
            # equality against the clean test split at every CI.
            clean_latents = clf.latent_matrix(test)
            for ci in range(10):
                assert np.array_equal(clf.latent_matrix(test_cis.with_ci(ci)), clean_latents)
            report = ln.evaluate(clf, test_cis, rp_map)
            if all(report.per_ci[ci].mean_error_m == 0.0 for ci in range(10)):
                lognet_perfect += 1

            dnn, _ = fit_dnn(
                train, 1, ln.TrainConfig(epochs=500, learning_rate=0.01, seed=seed)
            )
            dnn_report = ln.evaluate(dnn, test_cis, rp_map)
            if dnn_report.per_ci[9].mean_error_m > dnn_report.per_ci[0].mean_error_m:
                dnn_degraded += 1

        assert lognet_perfect == 5, f"gate encoder perfect in only {lognet_perfect}/5 seeds"
        assert dnn_degraded >= 4, f"dense baseline degraded in only {dnn_degraded}/5 seeds"


def test_c8_determinism_and_round_trips(tmp_path):
    with budget("c8 determinism-round-trips", 60.0):
        cfg_kwargs = dict(
            synth=ln.SynthSpec(num_rps=8, num_aps=16, fingerprints_per_rp=6, seed=7),
            model_family="lognet",
            gate=ln.GateType.NOR,
            train=ln.TrainConfig(epochs=40, seed=0),
            noise=ln.NoiseSpec(ln.NoiseMode.ED, -4.0, 1.0, seed=3),
        )

        out = tmp_path / "run"

        def volatile_free_report() -> bytes:
            ln.run_experiment(ln.ExperimentConfig(out_dir=str(out), **cfg_kwargs))
            doc = json.loads((out / "report.json").read_text())
            doc["model_meta"].pop("latency_ms")
            doc["model_meta"].pop("environment")
            return json.dumps(doc, sort_keys=True).encode()

        assert volatile_free_report() == volatile_free_report()

        # Dataset CSV round trip.
        ds, rp_map = ln.synth_dataset(
            ln.SynthSpec(num_rps=5, num_aps=9, fingerprints_per_rp=3, seed=1, jitter_sigma_db=1.3)
        )
        ln.write_fingerprints_csv(ds, tmp_path / "ds.csv")
        assert ln.read_fingerprints_csv(tmp_path / "ds.csv") == ds
        ln.write_rp_map_csv(rp_map, tmp_path / "map.csv")
        assert ln.read_rp_map_csv(tmp_path / "map.csv").entries == rp_map.entries

        # Model serialization round trip, bit-exact forward.
        clf, _ = fit_lognet(ds, ln.LogicEncoderConfig(ln.GateType.XOR, 0.5, 2), ln.TrainConfig(epochs=20))
        save_model(clf, tmp_path / "model.json")
        clone = load_model(tmp_path / "model.json")
        np.testing.assert_array_equal(clone.predict_proba(ds), clf.predict_proba(ds))

        # PGM bitmap round trip.
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, (9, 13)).astype(np.uint8)
        ln.write_latent_bitmap(bits, tmp_path / "bits.pgm")
        assert np.array_equal(ln.read_latent_bitmap(tmp_path / "bits.pgm"), bits)


def test_c9_pipeline_smoke(tmp_path):
    with budget("c9 pipeline-smoke", 30.0):
        fixtures = Path(__file__).parent / "fixtures"
        out = tmp_path / "run"
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable, "-m", "lognet.cli", "run",
                "--data", str(fixtures / "fingerprints_2rp3ap.csv"),
                "--rp-map", str(fixtures / "rp_map_2rp.csv"),
                "--model", "lognet", "--gate", "nor", "--hidden", "1",
                "--epochs", "60", "--seed", "0",
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
            timeout=25,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "report.json").read_text())
        assert sorted(int(ci) for ci in report["per_ci"]) == list(range(10))
        for artifact in ("model.json", "latents.csv", "latent_bitmap.pgm", "trace.txt"):
            assert (out / artifact).exists(), artifact
        assert "ci 9" in proc.stdout
