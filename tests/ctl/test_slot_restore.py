"""A run that raises must not leak autoscaled slots into the next run.

``Dispatcher.run`` restores ``slots`` to its pre-run value when the
run ends; that has to hold on the error path too, or the next run
starts from whatever pool size the failed run had scaled to.
"""

import pytest

from repro.ctl.dispatcher import AutoscaleConfig, Dispatcher
from repro.serve.jobs import generate_trace


class _Boom(Exception):
    pass


def test_failed_run_restores_initial_slots():
    dispatcher = Dispatcher(
        slots=1, autoscale=AutoscaleConfig(min_slots=1, max_slots=4,
                                           interval=300.0))
    initial = dispatcher.slots

    def explode(event):
        raise _Boom(f"subscriber failed on {event.describe()}")

    dispatcher.subscribe_autoscale(explode)
    with pytest.raises(_Boom):
        dispatcher.run(generate_trace("bursty", tenants=6, seed=5))
    assert dispatcher.slots == initial
