"""Hypothesis settings shared by the fuzz modules: derandomized, so every
run draws the same examples, bounded, and with no example database."""

from hypothesis import HealthCheck, settings

FUZZ = settings(derandomize=True, max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
