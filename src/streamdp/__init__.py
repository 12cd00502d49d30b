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
    build_schedule,
    execute,
    ledger_from_events,
    multires_events_at,
    sliding_chain,
    window_shape,
)

__version__ = "0.1.0"
