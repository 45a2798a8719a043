"""Cluster-scheduling simulation with recurring-job forecasting.

The pipeline: parse or synthesize a workload, mine layered periodic
patterns, prolong them into confidence-scored predicted jobs, simulate the
workload under any of eleven scheduling policies (with reservations for the
predictive one), and rank the policies on makespan, resource utilization,
and slowdown via a reciprocal comparison matrix and its principal
eigenvector.
"""

from .confidence import (
    Decision,
    FeedbackEvent,
    PatternGroup,
    ThresholdState,
    confidence_factor,
    decide,
    feedback_to_csv,
    group_patterns,
    update_thresholds,
)
from .hurst import HurstResult, fractional_gaussian_noise, hurst_exponent
from .metrics import (
    OBJECTIVES,
    ORIENTATIONS,
    ObjectiveVector,
    makespan,
    objectives,
    resource_utilization,
    slowdown,
)
from .patterns import (
    Pattern,
    PatternMiner,
    PredictedJob,
    SimilarityParams,
    build_layers,
    detect_patterns,
    group_similar_jobs,
    mine_patterns,
    predictions_to_csv,
    prolong,
)
from .policies import (
    POLICY_TOKENS,
    Policy,
    SchedulerView,
    make_policy,
)
from .ranking import (
    Ranking,
    global_matrix,
    load_matrix_tsv,
    matrix_to_tsv,
    principal_eigenvector,
    rank_algorithms,
    relative_estimations,
    render_matrix,
    render_report,
    weights_from_binary_matrix,
)
from .simtrace import SimTrace, TraceRecord, TraceRecords, trace_to_csv
from .simulator import (
    ForecasterConfig,
    SimulationError,
    Telemetry,
    run,
    run_with_telemetry,
    score_predictions,
)
from .synth import (
    Occurrence,
    SynthSpec,
    SynthTemplate,
    parse_synth_spec,
    synth_workload,
    truth_to_csv,
)
from .workload import (
    ClusterConfig,
    Job,
    ParseError,
    TimeSeries,
    Workload,
    load_workload,
    parse_csv,
    parse_swf,
    to_time_series,
    workload_to_csv,
)

__version__ = "0.1.0"
