"""admtrack: one-bit-per-sample signal tracking.

A continuous-time signal is sampled on a fixed grid and each sample is
transmitted as a single binary symbol. Encoder and decoder advance an
identical (estimate, slope) recursion, so the receiver reconstructs the
encoder's piecewise-linear estimate exactly from the bit stream. The slope
adapts multiplicatively with a configurable floor, which keeps the tracker
responsive after signal jumps; :mod:`admtrack.theory` checks the resulting
acquisition, settling, and steady-state error guarantees on concrete runs.
"""

from .codec import (
    MINUS,
    PLUS,
    AdaptationRule,
    CodecParams,
    StepRecord,
    Trace,
    check_trace,
    decode_bitstream,
    decode_step,
    encode_signal,
    encode_step,
    init_state,
    reconstruct,
    symbol_for_sample,
)
from .channel import (
    Erasure,
    Noiseless,
    ReceivedStream,
    decode_with_erasures,
    read_bitstream,
    transmit,
    write_bitstream,
)
from .errors import (
    AdmTrackError,
    DivergenceError,
    DomainError,
    FormatError,
    NumericError,
    ParameterError,
    SequencingError,
)
from .harness import (
    ComparisonSettings,
    ExperimentConfig,
    load_config,
    read_trace_csv,
    recovery_steps,
    run_compare,
    run_simulation,
    write_trace_csv,
)
from .signals import (
    Constant,
    GrowthBound,
    GrowthViolation,
    Piecewise,
    Ramp,
    SampledSignal,
    Sine,
    VariationBound,
    discontinuities,
    estimate_variation_bound,
    fit_growth_bound,
    restart_index,
    sample,
    sample_count,
    verify_growth,
)
from .theory import (
    Violation,
    acquisition_bound,
    settling_window,
    steady_error_bounds,
    verify_theorem,
)

__version__ = "0.1.0"
