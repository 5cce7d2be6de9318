"""Cascaded fuzzy control of a backing cab-trailer rig, plus a batch simulator.

The package root re-exports what a closed-loop run needs. The rest lives in
the submodules: the generic Mamdani engine (fuzzy), the two shipped
controllers and their cascade (controllers), the discrete plant (plant), the
closed-loop runner and sweeps (simulation), and a CLI (cli).
"""

from .plant import PlantState
from .simulation import Scenario, run

__version__ = "0.1.0"

__all__ = ["PlantState", "Scenario", "run"]
