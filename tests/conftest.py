"""Shared pytest configuration for the unit-test suite."""


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate tests/golden/expected_metrics.json from the "
             "committed golden trace instead of comparing against it",
    )


try:
    from hypothesis import Phase, settings
except ImportError:  # the hypothesis-based suites skip themselves
    pass
else:
    # ``--hypothesis-profile=ci``: report a failing example as found,
    # without shrinking it.  Each shrink step of the batch-engine
    # properties reruns two full simulators, so a red property otherwise
    # stalls for minutes before it reports.  Local runs keep shrinking.
    settings.register_profile(
        "ci", phases=[phase for phase in Phase if phase is not Phase.shrink])
