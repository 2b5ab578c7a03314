"""Every log record the benchmark harness parses still has the shape it parses.

perfbench's ``_StopTimes`` (perfbench/harness.py) reads per-node stop
latency from the manager's ``stop <node>: <seconds>`` records: a record
whose ``msg`` starts with ``stop %s`` and whose second arg is the seconds.
A refactor that changes that shape fails here, in the suite, rather than
in the benchmark run.
"""

from __future__ import annotations

import logging


def test_each_stop_record_has_the_shape_the_benchmark_parses(live_network, caplog):
    manager, config = live_network(prosumers=1, connect=False)
    with caplog.at_level(logging.INFO, logger="chainyard.manager"):
        manager.network_stop()
    stops = [r for r in caplog.records if r.name == "chainyard.manager" and r.getMessage().startswith("stop ")]
    assert len(stops) == len(config.all_nodes())
    for record in stops:
        assert record.msg.startswith("stop %s") and record.args, record.msg
        assert float(record.args[1]) >= 0, record.args
