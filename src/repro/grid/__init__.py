"""Simulated grid substrate: agents, messages, network, nodes, containers.

The message path itself (routing, causal tracing, metrics)
lives in :mod:`repro.bus`; the most commonly used pieces are re-exported
here for convenience.
"""

from repro.bus import MetricsRegistry, Router, TraceEvent, TraceNode
from repro.grid.agent import Agent, MessageTrace
from repro.grid.container import ApplicationContainer, EndUserService
from repro.grid.environment import GridEnvironment
from repro.grid.messages import Mailbox, Message, Performative
from repro.grid.network import LinkProfile, Network
from repro.grid.node import GridNode, HardwareProfile
from repro.grid.reservations import Reservation, ReservationLedger
from repro.grid.transfer import (
    TransferPlan,
    TransferSpec,
    Transformation,
    execute_plan,
    plan_transfer,
)

__all__ = [
    "Agent",
    "MessageTrace",
    "MetricsRegistry",
    "Router",
    "TraceEvent",
    "TraceNode",
    "Message",
    "Mailbox",
    "Performative",
    "Network",
    "LinkProfile",
    "GridNode",
    "HardwareProfile",
    "ApplicationContainer",
    "EndUserService",
    "GridEnvironment",
    "Reservation",
    "ReservationLedger",
    "TransferSpec",
    "Transformation",
    "TransferPlan",
    "plan_transfer",
    "execute_plan",
]
