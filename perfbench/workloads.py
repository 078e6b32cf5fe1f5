"""The three lognet benchmark workloads and their correctness checks.

Every workload is a closed loop: one caller, and each request starts when
the previous one has returned. Inputs are generated from the workload seed;
lognet receives only those inputs. Calls into lognet go through module
attributes looked up at call time (``EXP.run_experiment``, ``PIPE.fit_dnn``),
so the traced run's wrappers see them. See README.md for why each workload
exists and which layers and ROADMAP items it exposes.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import install, uninstall

DATA = importlib.import_module("lognet.data")
EXP = importlib.import_module("lognet.experiment")
FILEIO = importlib.import_module("lognet.fileio")
GATES = importlib.import_module("lognet.gates")
MODELS = importlib.import_module("lognet.models")
NOISE = importlib.import_module("lognet.noise")
PIPE = importlib.import_module("lognet.pipeline")

# Paper scale: the sizes behind acceptance criterion c6.
PAPER_RPS, PAPER_APS, PAPER_FPS = 61, 164, 6
# localize phase 2 batch: 61 RPs x 17 held-out draws x 10 CIs = 10370 rows.
POOL_DRAWS = 17
# Phases take turns in slices of this many seconds times their share.
SLICE_S = 1.0

_NULL = nullcontext()


def null_span(name: str):
    return _NULL


def paper_spec(seed: int, fingerprints_per_rp: int = PAPER_FPS, num_rps: int = PAPER_RPS,
               num_aps: int = PAPER_APS):
    return NOISE.SynthSpec(
        num_rps=num_rps, num_aps=num_aps, fingerprints_per_rp=fingerprints_per_rp, seed=seed,
        base_pattern="beacon-tint", jitter_sigma_db=1.0,
    )


def c7_drift(spec, seed: int):
    """Non-ED drift as in acceptance c7: volatile APs cross the threshold,
    bit-discriminative beacon and window APs keep a wide margin."""
    layout = NOISE.beacon_tint_layout(spec)
    rng = np.random.default_rng(seed)
    delta = np.zeros(spec.num_aps)
    delta[layout["volatile"]] = rng.uniform(30.0, 60.0, layout["volatile"].size)
    delta[layout["beacon"]] = -4.0
    delta[layout["window"]] = rng.uniform(-5.0, 5.0, layout["window"].size)
    return NOISE.NoiseSpec(NOISE.NoiseMode.NON_ED, delta, 0.0, seed=seed)


def artifact_digest(out_dirs) -> str:
    """Hash run_experiment outputs that must repeat bit for bit.

    report.json minus the volatile latency and environment and the
    machine-specific paths, plus the loss history and latent CSVs.
    """
    h = hashlib.sha256()
    for out in out_dirs:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        for key in ("latency_ms", "environment"):
            report["model_meta"].pop(key)
        for key in ("out_dir", "data"):
            report["config"].pop(key)
        h.update(json.dumps(report, sort_keys=True).encode())
        for name in ("loss_history.csv", "latents.csv"):
            if (out / name).exists():
                h.update((out / name).read_bytes())
    return h.hexdigest()


def run_experiment(cfg, cycle: int):
    return EXP.run_experiment(cfg)


class Workload:
    """Seeded inputs, phases and per-request checks of one workload.

    ``phases()`` yields (kind, share of the run's seconds, steps, rows per
    cycle). A phase cycles through its steps, one (name, fn) request at a
    time; ``fn(cycle)`` is the timed call, and ``check(step, cycle,
    output)`` runs untimed and returns whether the output is correct.
    ``latency_kind`` and ``throughput_kind`` name the phases behind
    ``latency_ms`` and ``throughput_fps``.
    """

    name = ""
    latency_kind = ""
    throughput_kind = ""
    cfgs: dict = {}  # step name -> ExperimentConfig, for run_experiment steps

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.span = null_span
        self.first_digest: dict[str, str] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def phases(self):
        raise NotImplementedError

    def check(self, step: str, cycle: int, output) -> bool:
        raise NotImplementedError

    def report(self) -> list[tuple[str, float, str]]:
        """Workload-specific figures (name, value, unit) for the human report."""
        return []

    def repeats(self, step: str) -> bool:
        """Whether a run_experiment step's artifacts hash as on its first request."""
        digest = artifact_digest([Path(self.cfgs[step].out_dir)])
        return self.first_digest.setdefault(step, digest) == digest

    def digest_outputs(self) -> dict[str, str]:
        """Canary digests beyond those captured from lognet calls."""
        if not self.cfgs:
            return {}
        return {"report": artifact_digest(Path(c.out_dir) for c in self.cfgs.values())}


class PaperDrift(Workload):
    """Sweep of run_experiment over five model variants at paper scale."""

    name = "paper-drift"
    latency_kind = throughput_kind = "sweep"
    # (name, family, gate, depth, batch size, epochs)
    VARIANTS = (
        ("nor1-full", "lognet", "nor", 1, None, 150),
        ("xor2-full", "lognet", "xor", 2, None, 150),
        ("nor1-b32", "lognet", "nor", 1, 32, 150),
        ("dnn1-full", "dnn", "nor", 1, None, 500),
        ("dnn1-b32", "dnn", "nor", 1, 32, 100),
    )
    NOR_VARIANTS = ("nor1-full", "nor1-b32")

    def __init__(self, seed: int, work: Path, spec=None):
        super().__init__(seed, work)
        self.spec = spec or paper_spec(seed)

    def setup(self) -> None:
        noise = c7_drift(self.spec, self.seed + 1)
        self.cfgs = {
            name: EXP.ExperimentConfig(
                out_dir=str(self.work / name),
                synth=self.spec,
                model_family=family,
                gate=GATES.GateType.from_name(gate),
                hidden_layers=depth,
                train=MODELS.TrainConfig(epochs=epochs, seed=self.seed, batch_size=batch),
                noise=noise,
                schedule=NOISE.TemporalSchedule.default(),
            )
            for name, family, gate, depth, batch, epochs in self.VARIANTS
        }
        self.last = {}

    def phases(self):
        rows = len(self.VARIANTS) * self.spec.num_rps * self.spec.fingerprints_per_rp
        steps = tuple((name, functools.partial(run_experiment, cfg)) for name, cfg in self.cfgs.items())
        yield "sweep", 1.0, steps, rows

    def check(self, step: str, cycle: int, report) -> bool:
        self.last[step] = report
        # The paper's claim: the NOR gate encoder is blind to this drift.
        ok = step not in self.NOR_VARIANTS or all(
            stats.mean_error_m == 0.0 for stats in report.per_ci.values()
        )
        return ok and self.repeats(step)

    def report(self):
        last_ci = max(self.last["nor1-full"].per_ci)
        return [
            (f"err_ci{last_ci}_lognet_m", self.last["nor1-full"].per_ci[last_ci].mean_error_m, "m"),
            (f"err_ci{last_ci}_dnn_m", self.last["dnn1-full"].per_ci[last_ci].mean_error_m, "m"),
        ]


class BuildingIngest(Workload):
    """Write a building-scale CSV, then run_experiment from it per family."""

    name = "building-ingest"
    latency_kind = throughput_kind = "ingest"

    def __init__(self, seed: int, work: Path, spec=None, epochs: int = 10):
        super().__init__(seed, work)
        self.spec = spec or NOISE.SynthSpec(
            num_rps=400, num_aps=520, fingerprints_per_rp=5, seed=seed,
            base_pattern="random", jitter_sigma_db=2.0,
        )
        self.epochs = epochs

    def setup(self) -> None:
        self.ds, self.rp_map = NOISE.synth_dataset(self.spec)
        self.data_path = self.work / "fingerprints.csv"
        self.rp_map_path = self.work / "rp_map.csv"
        self.cfgs = {
            f"run-{family}": EXP.ExperimentConfig(
                out_dir=str(self.work / family),
                data_path=str(self.data_path),
                rp_map_path=str(self.rp_map_path),
                model_family=family,
                train=MODELS.TrainConfig(epochs=self.epochs, seed=self.seed),
            )
            for family in ("lognet", "dnn")
        }

    def phases(self):
        steps = (("write", self.write),) + tuple(
            (name, functools.partial(run_experiment, cfg)) for name, cfg in self.cfgs.items()
        )
        yield "ingest", 1.0, steps, len(self.ds)

    def write(self, cycle: int) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        FILEIO.write_fingerprints_csv(self.ds, str(self.data_path))
        FILEIO.write_rp_map_csv(self.rp_map, str(self.rp_map_path))

    def check(self, step: str, cycle: int, output) -> bool:
        if step == "write":
            return self.data_path.stat().st_size > 0
        return self.repeats(step)


class Localize(Workload):
    """Serve trained lognet (NOR, depth 1) and dnn classifiers.

    Phase "query": one raw-dBm fingerprint per request, wrapped the only
    public way and localized by both models. Phase "batch": both models
    predict the whole drifted pool at once. Training happens in set-up.
    """

    name = "localize"
    latency_kind = "query"
    throughput_kind = "batch"

    def __init__(self, seed: int, work: Path, spec=None, pool_draws: int = POOL_DRAWS):
        super().__init__(seed, work)
        self.spec = spec or paper_spec(seed)
        self.pool_draws = pool_draws

    def setup(self) -> None:
        spec = self.spec
        ds, _ = NOISE.synth_dataset(spec)
        train, _ = DATA.split_train_test(ds, 1, self.seed)
        encoder = GATES.LogicEncoderConfig(GATES.GateType.NOR, 0.5, 1)
        self.lognet, _ = PIPE.fit_lognet(train, encoder, MODELS.TrainConfig(150, seed=self.seed))
        self.dnn, _ = PIPE.fit_dnn(train, 1, MODELS.TrainConfig(500, seed=self.seed))
        # Held-out draws of every RP (never trained on), drifted over 10 CIs.
        held_out, _ = NOISE.synth_dataset(
            paper_spec(self.seed + 3, self.pool_draws, spec.num_rps, spec.num_aps)
        )
        self.pool = NOISE.simulate_cis(
            held_out, c7_drift(spec, self.seed + 1), NOISE.TemporalSchedule.default()
        )
        self.rss = self.pool.rss_matrix()
        self.meta = [(fp.rp_id, fp.device_id, fp.ci) for fp in self.pool]
        self.order = np.random.default_rng(self.seed + 4).permutation(len(self.pool))
        self.expected = (self.lognet.predict(self.pool), self.dnn.predict(self.pool))

    def phases(self):
        yield "query", 0.5, (("query", self.query),), 1
        yield "batch", 0.5, (("batch", self.batch),), len(self.pool)

    def query(self, cycle: int):
        j = self.order[cycle % len(self.order)]
        rp_id, device_id, ci = self.meta[j]
        with self.span("data.wrap"):
            ds = DATA.Dataset((DATA.Fingerprint(rp_id, device_id, ci, self.rss[j]),), self.pool.ap_count)
        return self.lognet.predict(ds), self.dnn.predict(ds)

    def batch(self, cycle: int):
        return self.lognet.predict(self.pool), self.dnn.predict(self.pool)

    def check(self, step: str, cycle: int, output) -> bool:
        if step == "query":
            j = self.order[cycle % len(self.order)]
            return all(out.shape == (1,) and out[0] == exp[j] for out, exp in zip(output, self.expected))
        return all(np.array_equal(out, exp) for out, exp in zip(output, self.expected))


def measure(workload, seconds: float, root) -> dict:
    """Closed loop over the phases until `seconds` is up.

    Phases take turns in slices of SLICE_S times their share, so each one
    samples the whole run; a slice runs whole cycles, at least one. Returns
    per phase the times of each step, the rows per cycle and the number of
    requests and failed checks. `root(step)` opens the request's root span
    in the traced run.
    """
    phases = list(workload.phases())
    result = {
        kind: {"times": {name: [] for name, _ in steps}, "rows": rows, "requests": 0, "failed": 0}
        for kind, _, steps, rows in phases
    }
    end = perf_counter() + seconds
    while True:
        for kind, share, steps, _ in phases:
            ph = result[kind]
            deadline = min(perf_counter() + SLICE_S * share, end)
            while True:
                cycle = ph["requests"] // len(steps)
                for name, fn in steps:
                    with root(name):
                        start = perf_counter()
                        output = fn(cycle)
                        ph["times"][name].append(perf_counter() - start)
                    ph["failed"] += not workload.check(name, cycle, output)
                ph["requests"] += len(steps)
                if perf_counter() >= deadline:
                    break
        if perf_counter() >= end:
            return result


WORKLOADS = {cls.name: cls for cls in (PaperDrift, BuildingIngest, Localize)}


# Outputs hashed by the canary, captured where lognet returns them.
CAPTURE_POINTS = (
    ("lognet.experiment", "fit_lognet", "loss"),
    ("lognet.pipeline", "fit_lognet", "loss"),
    ("lognet.experiment", "fit_dnn", "loss"),
    ("lognet.pipeline", "fit_dnn", "loss"),
    ("lognet.pipeline", "LogNetClassifier.predict", "predictions"),
    ("lognet.pipeline", "DnnClassifier.predict", "predictions"),
    ("lognet.pipeline", "LogNetClassifier.latent_matrix", "latents"),
)


def _hash_array(h, arr) -> None:
    arr = np.ascontiguousarray(arr)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())


def canary_digests(workload: Workload) -> dict[str, str]:
    """Run set-up and one cycle of each phase, hashing every output.

    Loss histories, per-CI predictions and latent matrices are captured in
    call order as lognet returns them; run_experiment artifacts are added
    by the workload.
    """
    hashes = {kind: hashlib.sha256() for _, _, kind in CAPTURE_POINTS}

    def capturing(kind, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            _hash_array(hashes[kind], result[1] if kind == "loss" else result)
            return result

        return wrapper

    undo = install(CAPTURE_POINTS, capturing)
    try:
        workload.setup()
        for _, _, steps, _ in workload.phases():
            for name, fn in steps:
                if not workload.check(name, 0, fn(0)):
                    return {"check": "failed"}
    finally:
        uninstall(undo)
    return {kind: h.hexdigest() for kind, h in hashes.items()} | workload.digest_outputs()
