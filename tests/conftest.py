import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))
# The test corpora draw with the demo corpus generator's planted_matrix.
sys.path.insert(0, str(Path(__file__).parents[1] / "scripts"))

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("suite")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One status line per release criterion, whenever the gate module ran."""
    module = sys.modules.get("test_acceptance")
    if module is None or not getattr(module, "RESULTS", None):
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="-")
    for label in module.CRITERIA:
        status = module.RESULTS.get(label, "NOT RUN")
        terminalreporter.write_line(f"{status:<4} {label}")
