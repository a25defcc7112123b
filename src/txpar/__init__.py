"""txpar: quantify and simulate parallelism in blockchain transaction
workloads — dependency-graph speedup bounds, optimistic schedulers at three
determinism levels, and counter-conflict elimination rewrites."""

from .bound import ScheduleResult, bound_schedule, brute_force_makespan
from .errors import (
    InvariantViolation,
    SizeLimitError,
    SoundnessError,
    TraceParseError,
    ValidationError,
)
from .graph import (
    DependencyGraph,
    PathReport,
    build_graph,
    critical_path,
    heaviest_from,
    schedule_graph,
)
from .occsim import (
    ExecAttempt,
    FixedTiming,
    JitterTiming,
    OccRunResult,
    ProbeReport,
    SvPolicy,
    Timing,
    determinism_probe,
    run_occ_classic,
    run_occ_da,
    run_occ_det_commit,
)
from .storagevm import (
    StorageState,
    TxEffect,
    TxVm,
    commit,
    exec_abstract,
    replay_check,
    replay_final_state,
    run_serial,
    serial_final_state,
    write_value,
)
from .transforms import (
    PartitionSpec,
    cadd_rewrite,
    partition_counters,
    prune_edges_probabilistic,
    route_hash,
    split_senders,
    sub_counter_key,
)
from .workload import (
    AccessSet,
    StorageKey,
    Transaction,
    Workload,
    emit_trace,
    gen_defi_fee,
    gen_mixed,
    gen_nft_mint,
    gen_payments,
    gen_token_distribution,
    parse_trace,
)

__version__ = "0.1.0"
