"""Streaming differentially private ERM: training, noise, schedules, accounting."""

from .erm import (
    CertificateError,
    Dataset,
    DivergenceError,
    ErmError,
    TrainConfig,
    clip_l1,
    evaluate_accuracy,
    lipschitz_public,
    loss_and_gradient,
    sgd_train,
    solve,
)
from .harness import (
    EvalConfig,
    HarnessError,
    MetricsRecord,
    SynthConfig,
    export_metrics,
    load_csv,
    load_idx,
    replay,
    synth_stream,
)
from .ledger import BudgetReport, Charge, Ledger, LedgerError
from .mechanisms import (
    MechanismError,
    laplace_noise,
    laplace_scale,
    output_perturb,
    pberm,
    sampling_probability,
    solve_tolerance,
    subsample,
)
from .schedulers import (
    ChainState,
    EventSpec,
    Schedule,
    ScheduleError,
    SchedulerConfig,
    baseline_basic_cumulative_schedule,
    baseline_independent_schedule,
    build_schedule,
    continual_schedule,
    execute,
    ledger_from_events,
    multires_events_at,
    multires_schedule,
    sliding_chain,
    sliding_schedule,
    window_shape,
)

__version__ = "0.1.0"
