"""Simulation suite for orthogonal-state-based cryptographic protocols.

Layered bottom-up: ``gpt`` (fiducial-table states as gbit blocks),
``quantum`` (small dense qubit simulator with Bell machinery and noise,
and the Pauli-frame pair engine),
``transport`` (carriers, permutations, the eavesdropper-hookable
channel), ``config`` (validated protocol configurations), ``metrics``
(entropies, information rates, security verdicts), ``adversary``
(attack strategies and their exact information analytics),
``protocols`` (the runnable state machines and class reductions), and
``cli`` (experiment runner).
"""

from orthosim.adversary import (
    AdversaryError,
    AttackReport,
    GltInterceptResend,
    ProbeAttack,
    QuantumInterceptResend,
    escape_probability,
    escape_probability_checked,
    escape_probability_sampled,
    matching_count,
    perfect_matchings,
    permutation_attack,
    pop_eve_information,
    sample_matching,
    stream_eve_information,
)
from orthosim.config import (
    CONFIG_SCHEMA,
    AdversarySpec,
    ConfigValidationError,
    NoiseSpec,
    ProtocolConfig,
    config_digest,
    derive_seed,
    dump_config,
    load_config,
    message_capacity,
    protocol_class,
    repetition_length,
)
from orthosim.gpt import (
    FiducialSpec,
    GbitBlock,
    GptError,
    GptValidationError,
    measure_fiducial,
    sample_outcome,
)
from orthosim.metrics import (
    DEFAULT_QUANTUM_THRESHOLD,
    JointCounts,
    MetricsError,
    SecurityVerdict,
    SweepPoint,
    binary_entropy,
    calibrated_threshold,
    check_qkd_condition,
    check_qsdc_condition,
    information_crossing,
    mutual_information,
    probe_family_sweep,
)
from orthosim.protocols import (
    RESULT_SCHEMA,
    EscapeEstimate,
    ProtocolError,
    RunResult,
    block_reduce,
    decode_bell_bits,
    derive_qka,
    glt_escape_trials,
    key_reduce,
    run,
    run_glt2s,
    run_pop_qsdc,
    run_stream_qkd,
)
from orthosim.quantum import (
    BellOutcome,
    DensityMatrix,
    NoiseChannel,
    ProbeAttackSpec,
    QuantumError,
    QuantumRegistry,
    QuantumValidationError,
    ResourceLimitError,
    StateVector,
    basis_state,
    bell_measure,
    dense_encode,
    holevo_information,
    probe_interact,
    reduced_state,
    singlet,
    von_neumann_entropy,
)
from orthosim.transport import (
    Channel,
    EveHook,
    ParticleBlock,
    Permutation,
    Transcript,
    TranscriptRecord,
    TransportError,
)

__version__ = "0.1.0"
