"""Active-measurement framework: schedules, backends, runner, sinks."""

from .adaptive import (
    AdaptiveAllocator,
    AdaptiveResult,
    AllocationRound,
    uniform_campaign,
)
from .backends import MeasurementBackend, ProbeRequest, SimulatedBackend
from .monitor import Alert, BarometerMonitor
from .runner import FailedProbe, ProbeRunner, RunReport
from .scheduler import DiurnalSchedule, PoissonSchedule, UniformSchedule
from .sinks import (
    FanOutSink,
    JsonlSink,
    MemorySink,
    ResultSink,
    SketchSink,
)

__all__ = [
    "AdaptiveAllocator",
    "AdaptiveResult",
    "Alert",
    "AllocationRound",
    "BarometerMonitor",
    "DiurnalSchedule",
    "FailedProbe",
    "FanOutSink",
    "JsonlSink",
    "MeasurementBackend",
    "MemorySink",
    "PoissonSchedule",
    "ProbeRequest",
    "ProbeRunner",
    "ResultSink",
    "RunReport",
    "SimulatedBackend",
    "SketchSink",
    "UniformSchedule",
    "uniform_campaign",
]
