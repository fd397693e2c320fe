"""Simulation, gain construction and numerical certification for linear
systems whose control channel is gated by a persistently exciting signal:
x' = A x + alpha(t) B u with alpha in [0, 1] integrating to at least mu over
every window of length T."""

__version__ = "0.1.0"

from .errors import (ConstructionError, DegenerateStateError, DomainError,
                     InsufficientDataError, InternalConsistencyError,
                     NotNeutrallyStable, PestabError, PreconditionError,
                     ShapeError, SimulationError)
from .signals import (PeClass, PwcSignal, integrate_signal, make_battery,
                      make_duty, rescale_time, shift, verify_pe)
from .simcore import (ClosedLoop, Trajectory, crossing_time, fmap_F,
                      polar_lift, propagate, propagate_batch)

__all__ = [
    "__version__",
    "PestabError", "ShapeError", "DomainError", "PreconditionError",
    "NotNeutrallyStable", "DegenerateStateError", "ConstructionError",
    "InternalConsistencyError", "SimulationError", "InsufficientDataError",
    "PeClass", "PwcSignal", "integrate_signal", "verify_pe",
    "make_duty", "shift", "rescale_time", "make_battery",
    "ClosedLoop", "Trajectory", "propagate", "propagate_batch",
    "crossing_time", "polar_lift", "fmap_F",
]
