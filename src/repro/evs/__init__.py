"""Extended Virtual Synchrony (EVS) semantics (paper §II).

EVS extends Virtual Synchrony to partitionable environments: delivery and
ordering guarantees are defined with respect to a series of
*configurations* — sets of connected participants plus a unique
identifier.  Membership changes are delivered to the application as
configuration-change events; a *transitional configuration* bridges an old
regular configuration and the next one, so applications can know exactly
which messages were shared with which peers.

:mod:`repro.evs.checker` validates delivery traces against the EVS
properties the paper relies on (Agreed and Safe delivery); the test suite
runs it over randomized fault schedules.
"""

from repro.evs.configuration import Configuration
from repro.evs.events import DeliveryEvent, MessageDelivery, ConfigDelivery
from repro.evs.checker import EvsChecker, EvsViolation

__all__ = [
    "Configuration",
    "DeliveryEvent",
    "MessageDelivery",
    "ConfigDelivery",
    "EvsChecker",
    "EvsViolation",
]
