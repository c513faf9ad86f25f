"""Event-driven gate-level simulation, timing, power and voltage analysis.

Contents:

* :mod:`repro.sim.simulator`, :mod:`repro.sim.waveform` — the
  discrete-event gate-level simulator (an event loop on integer net/cell
  tables) and its traces;
* :mod:`repro.sim.handshake` — dual-rail (spacer/valid) and synchronous
  (clocked) stimulus environments with per-operand measurements;
* :mod:`repro.sim.monitors` — runtime checks of the paper's protocol
  requirements (monotonicity, forbidden states, completion ordering);
* :mod:`repro.sim.power` — switching-activity energy and power accounting;
* :mod:`repro.sim.sta` — static timing analysis (grace periods, clock period);
* :mod:`repro.sim.voltage` — supply-voltage sweep machinery (Figure 3);
* :mod:`repro.sim.backends` — pluggable simulation backends: the
  event-driven reference (``"event"``) and the bit-packed 64-lane engine
  (``"bitpack"``, with its ``uint8``-unpacked view ``"batch"``) behind the
  fast experiment sweeps;
* :mod:`repro.sim.program` — the serializable :class:`CompiledProgram` IR
  every levelized consumer executes (``compile_program(netlist, library)``
  → ``get_backend(name, program=...)``), compiled once in a parent process
  and shipped to its workers;
* :mod:`repro.sim.kernels` — the grouped-kernel execution engine the
  vectorized backends run on: per-level gather/scatter groups (one
  vectorized call per cell shape per level).
"""

from .backends import (
    BackendError,
    BackendSession,
    BatchBackend,
    BatchResult,
    BitpackBackend,
    EventBackend,
    SimulationBackend,
    TimedBatchResult,
    TimedProgram,
    available_backends,
    get_backend,
)
from .kernels import FusedKernel, GroupedPlan, build_grouped_plan
from .program import (
    PROGRAM_COMPILER_VERSION,
    CompiledProgram,
    ProgramOp,
    compile_program,
    netlist_fingerprint,
)
from .handshake import (
    DualRailEnvironment,
    DualRailInferenceResult,
    SynchronousCycleResult,
    SynchronousEnvironment,
)
from .monitors import (
    ActivityCounter,
    CompletionObserver,
    ForbiddenStateMonitor,
    MonotonicityMonitor,
    ProtocolViolation,
    Violation,
)
from .power import EnergyBreakdown, PowerAccountant, PowerReport
from .simulator import (
    GateLevelSimulator,
    Monitor,
    SimulationError,
    TransitionRecord,
)
from .sta import (
    WIRE_CAP_PER_FANOUT_FF,
    TimingReport,
    arrival_of_nets,
    cell_output_delay,
    output_load,
    register_to_register_period,
    static_timing_analysis,
)
from .voltage import (
    FIGURE3_VOLTAGES,
    VoltagePoint,
    delay_scaling_curve,
    exponential_region_slope,
    latency_ratio,
    sweep_supply_voltages,
)
from .waveform import NetTrace, Waveform

__all__ = [
    "ActivityCounter",
    "BackendError",
    "BatchBackend",
    "BitpackBackend",
    "BatchResult",
    "CompletionObserver",
    "DualRailEnvironment",
    "DualRailInferenceResult",
    "EnergyBreakdown",
    "EventBackend",
    "FIGURE3_VOLTAGES",
    "ForbiddenStateMonitor",
    "FusedKernel",
    "GateLevelSimulator",
    "GroupedPlan",
    "Monitor",
    "MonotonicityMonitor",
    "NetTrace",
    "PowerAccountant",
    "PowerReport",
    "ProtocolViolation",
    "SimulationBackend",
    "SimulationError",
    "SynchronousCycleResult",
    "SynchronousEnvironment",
    "TimedBatchResult",
    "TimedProgram",
    "TimingReport",
    "TransitionRecord",
    "Violation",
    "VoltagePoint",
    "WIRE_CAP_PER_FANOUT_FF",
    "Waveform",
    "arrival_of_nets",
    "available_backends",
    "build_grouped_plan",
    "cell_output_delay",
    "delay_scaling_curve",
    "exponential_region_slope",
    "get_backend",
    "latency_ratio",
    "output_load",
    "register_to_register_period",
    "static_timing_analysis",
    "sweep_supply_voltages",
]
