"""The reported normal-form implementation."""

import fpmod


def test_backend_reports_name():
    assert fpmod.BACKEND == "pure"
