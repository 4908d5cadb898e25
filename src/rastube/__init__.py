"""Smooth corridor synthesis and corridor-keeping control for
prescribed-time reach-avoid-stay tasks."""

from importlib import resources

from . import cli
from .avoidance import (ObstaclePlan, crossing_fractions, intersection_interval,
                        schedule, select_dimension, select_side)
from .controller import ControllerConfig, TubeFrame, control_input, gain_diagonal, \
    normalized_error, transformed_error
from .errors import (ConfigurationError, InfeasibleScenarioError, RastubeError,
                     SynthesisError, TubeViolationError)
from .geometry import Box, Interval
from .metrics import EffortReport, baseline_tube, control_effort
from .plant import (DisturbanceModel, FrameProvider, IntegratorPlant, OmniRobot,
                    SimOptions, SimTrace, simulate)
from .reach import ReachMargin
from .scenario import RasTask, TubeParams, ValidationReport, validate_assumptions
from .tube import Tube, evolve_tube, smoothness_check, verify_tube

__version__ = "0.1.0"


def bundled_scenario_path(name: str = "casestudy_omni") -> str:
    """Filesystem path of a scenario shipped with the package."""
    return str(resources.files(__name__) / "data" / f"{name}.json")
