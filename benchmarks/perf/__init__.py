"""End-to-end and per-layer host-time benchmark of the simulator.

It drives the simulator only through
``repro.harness.runner.run_experiment`` and times its layers from
outside; see ``README.md`` beside this file.
"""
