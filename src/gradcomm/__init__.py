"""Modeling, measurement, and simulation of the communication cost of
distributed optimization with gradient compression.

The package covers the full loop: compression operators with exact
transmitted-bit accounting (`compression`), the affine transmission-time
model and speedup analysis (`commodel`), constant-memory online estimation
of the model coefficients (`estimator`), a synchronous distributed-GD
simulator that charges communication time per round (`optimizer`), selection
of the compression power that minimizes predicted time (`adaptive`), a live
TCP ping-pong measurement tool (`netprobe`), and a CLI tying them together
(`cli`).
"""

__version__ = "0.1.0"

from . import adaptive, commodel, compression, estimator, netprobe, optimizer
from .adaptive import SelectionObjective, adaptive_controller, predicted_cost, select_power
from .commodel import (
    Region,
    SpeedupRow,
    TimeModelParams,
    classify_region,
    eta,
    expected_time,
    sample_time,
    transition_report,
)
from .compression import (
    CompressedMessage,
    CompressorSpec,
    DenseVector,
    compress,
    decompress,
    omega_inf,
)
from .netprobe import PingPongServer, ProbeResult, ProbeSample, probe
from .optimizer import (
    Problem,
    SimConfig,
    SimTrace,
    closed_form_optimum,
    run_compressed_gd,
)

__all__ = [
    "__version__",
    "adaptive", "commodel", "compression", "estimator", "netprobe", "optimizer",
    "SelectionObjective", "adaptive_controller", "predicted_cost", "select_power",
    "Region", "SpeedupRow", "TimeModelParams", "classify_region", "eta",
    "expected_time", "sample_time", "transition_report",
    "CompressedMessage", "CompressorSpec", "DenseVector", "compress", "decompress",
    "omega_inf",
    "PingPongServer", "ProbeResult", "ProbeSample", "probe",
    "Problem", "SimConfig", "SimTrace", "closed_form_optimum",
    "run_compressed_gd",
]
