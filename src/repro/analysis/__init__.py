"""Measuring the mechanisms behind the numbers (paper §III-A).

:mod:`repro.analysis.ledger` records what every simulated host hands its
NIC and derives from it the Fig. 1 schedule, token rotation times, dead
air on the wire and per-host CPU share.
"""
