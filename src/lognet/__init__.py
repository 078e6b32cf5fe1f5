"""Logic-gate fingerprint encoder and DNN baseline for Wi-Fi RSS indoor
localization, with a temporal noise simulator and evaluation harness."""

from .data import (
    DEFAULT_RSS_HI,
    DEFAULT_RSS_LO,
    DEFAULT_THRESHOLD,
    RSS_SENTINEL,
    Dataset,
    Fingerprint,
    RpMap,
    binarize_matrix,
    normalize,
    normalize_values,
    split_train_test,
)
from .errors import (
    BoundsError,
    CapacityError,
    ConfigError,
    LogNetError,
    ParseError,
    ShapeError,
    SplitError,
    StageError,
    TrainingError,
    UnknownRpError,
    ValidationError,
)
from .evaluate import (
    CiStats,
    EvalReport,
    LatencyResult,
    LatentDiff,
    evaluate,
    export_gray_bitmap,
    majority_by_rp,
    mean_localization_error,
    measure_latency,
    read_latent_bitmap,
    sample_errors,
    write_latent_bitmap,
)
from .experiment import (
    ComparisonTable,
    ExperimentConfig,
    compare_models,
    run_experiment,
)
from .fileio import (
    read_delta_csv,
    read_fingerprints_csv,
    read_latents_csv,
    read_pgm,
    read_rp_map_csv,
    write_fingerprints_csv,
    write_latents_csv,
    write_pgm,
    write_rp_map_csv,
)
from .gates import (
    GATE_FORMULAS,
    TRUTH_TABLES,
    GateType,
    LatentCode,
    LogicEncoderConfig,
    apply_gate,
    ceil_chain,
    encode,
    encode_matrix,
    gate_arithmetic,
    trace_bit_to_aps,
)
from .models import (
    BYTES_PER_PARAM,
    DenseStack,
    TrainConfig,
    count_params,
    dnn_hidden_widths,
    forward,
    gradient_check,
    init_dnn,
    model_size_bytes,
    train_dnn,
    train_softmax,
)
from .noise import (
    NoiseMode,
    NoiseSpec,
    SynthSpec,
    TemporalSchedule,
    beacon_tint_layout,
    inject_noise,
    simulate_cis,
    synth_dataset,
)
from .pipeline import (
    DnnClassifier,
    LogNetClassifier,
    fit_dnn,
    fit_lognet,
    load_model,
    save_model,
)

__version__ = "0.1.0"
