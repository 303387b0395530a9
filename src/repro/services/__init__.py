"""The Figure-1 core services (paper Section 2)."""

from repro.services.authentication import AuthenticationService, Ticket
from repro.services.base import WELL_KNOWN, CoreService
from repro.services.bootstrap import (
    CoreServices,
    build_core_services,
    standard_environment,
)
from repro.services.brokerage import BrokerageService, ContainerAd
from repro.services.coordination import CoordinationService, EnactmentRecord
from repro.services.information import InformationService, Offering
from repro.services.matchmaking import MatchmakingService
from repro.services.monitoring import MonitoringService
from repro.services.ontology_service import OntologyService
from repro.services.planning import PlanningService
from repro.services.scheduling import SchedulingService
from repro.services.simulation_service import SimulationService
from repro.services.storage import PersistentStorageService
from repro.services.user_interface import UserInterface

__all__ = [
    "CoreService",
    "WELL_KNOWN",
    "InformationService",
    "Offering",
    "BrokerageService",
    "ContainerAd",
    "MatchmakingService",
    "MonitoringService",
    "OntologyService",
    "PersistentStorageService",
    "AuthenticationService",
    "Ticket",
    "SchedulingService",
    "SimulationService",
    "PlanningService",
    "CoordinationService",
    "EnactmentRecord",
    "UserInterface",
    "CoreServices",
    "build_core_services",
    "standard_environment",
]
