"""Anchored indirect treatment comparison with MAIC weighting for simulated
survival trials."""

from .harness import (
    ScenarioConfig,
    ScenarioResult,
    parse_config,
    replicate_appendix,
    run_scenario,
)

__version__ = "0.1.0"
