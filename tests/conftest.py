"""Settings shared by every test module."""

from hypothesis import settings

# Every property test draws the same examples on every run and keeps no
# example database; a test sets only its own `max_examples`.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
