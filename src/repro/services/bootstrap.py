"""Environment bootstrap: bring up the Figure-1 architecture in one call.

:func:`build_core_services` attaches the eleven core services to an
environment; :func:`standard_environment` additionally creates nodes and
application containers hosting the given end-user services and advertises
them to the information and brokerage services — everything the paper's
Figure 1 shows, ready for a coordination request.  Every core service is
a singleton under its well-known name; scaling out runs N such grids in
N processes (``run_many_cases(shards=N)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.grid.container import ApplicationContainer, EndUserService
from repro.grid.environment import GridEnvironment
from repro.grid.node import HardwareProfile
from repro.ontology.frames import KnowledgeBase
from repro.planner.config import GPConfig
from repro.planner.library import PlanLibrary
from repro.services.authentication import AuthenticationService
from repro.services.brokerage import BrokerageService, ContainerAd
from repro.services.coordination import CoordinationService
from repro.services.information import InformationService
from repro.services.matchmaking import MatchmakingService
from repro.services.monitoring import MonitoringService
from repro.services.ontology_service import OntologyService
from repro.services.planning import PlanningService
from repro.services.scheduling import SchedulingService
from repro.services.simulation_service import SimulationService
from repro.services.storage import PersistentStorageService
from repro.sim.failures import BernoulliFailures

__all__ = [
    "CoreServices",
    "SITES",
    "build_core_services",
    "standard_environment",
]


@dataclass
class CoreServices:
    """Handles to the attached core services."""

    information: InformationService
    brokerage: BrokerageService
    matchmaking: MatchmakingService
    monitoring: MonitoringService
    ontology: OntologyService
    storage: PersistentStorageService
    authentication: AuthenticationService
    scheduling: SchedulingService
    simulation: SimulationService
    planning: PlanningService
    coordination: CoordinationService

    def all(self) -> tuple:
        return (
            self.information,
            self.brokerage,
            self.matchmaking,
            self.monitoring,
            self.ontology,
            self.storage,
            self.authentication,
            self.scheduling,
            self.simulation,
            self.planning,
            self.coordination,
        )


def build_core_services(
    env: GridEnvironment,
    site: str = "core",
    planner_config: GPConfig | None = None,
    planner_seed: int = 0,
    coordination_credentials: tuple[str, str] | None = None,
    plan_library: PlanLibrary | None = None,
    knowledge_base: KnowledgeBase | None = None,
) -> CoreServices:
    """Attach all eleven core services to *env* (information first — the
    others register their offerings with it).

    *plan_library* hands the planning service a warm-start plan repository
    (persisted through the storage service); *knowledge_base* is the
    registry view it re-verifies retrieved plans against — and the
    coordination intake gate's resolvability context.  Both default to
    None, which leaves planning byte-identical to a library-less grid.
    """
    information = InformationService(env, site=site)
    services = CoreServices(
        information=information,
        brokerage=BrokerageService(env, site=site),
        matchmaking=MatchmakingService(env, site=site),
        monitoring=MonitoringService(env, site=site),
        ontology=OntologyService(env, site=site),
        storage=PersistentStorageService(env, site=site),
        authentication=AuthenticationService(env, site=site),
        scheduling=SchedulingService(env, site=site),
        simulation=SimulationService(env, site=site),
        planning=PlanningService(
            env,
            site=site,
            config=planner_config,
            rng=planner_seed,
            library=plan_library,
            knowledge_base=knowledge_base,
        ),
        coordination=CoordinationService(
            env, site=site, credentials=coordination_credentials
        ),
    )
    if knowledge_base is not None:
        services.coordination.knowledge_base = knowledge_base
    env.core_services = services  # type: ignore[attr-defined]
    return services


#: Sites the fleet's nodes cycle through, one per node in turn.
SITES = ("siteA", "siteB", "siteC")


def _add_fleet(
    env: GridEnvironment,
    information: InformationService,
    broker: BrokerageService,
    end_user_services: Sequence[EndUserService],
    *,
    containers: int,
    speeds: Sequence[float],
    cost_rates: Sequence[float],
    slots: int,
    reservable: bool,
    secure: bool,
    failure_probability: float,
    failure_seed: int,
) -> list[ApplicationContainer]:
    """*containers* application containers, each on its own node (cycling
    through :data:`SITES`, *speeds* and *cost_rates*) and each hosting
    every end-user service, advertised to *information* and *broker*.
    """
    failures = (
        BernoulliFailures(failure_probability, rng=failure_seed)
        if failure_probability > 0
        else None
    )
    fleet: list[ApplicationContainer] = []
    for idx in range(containers):
        site = SITES[idx % len(SITES)]
        speed = speeds[idx % len(speeds)]
        node = env.add_node(
            f"node{idx + 1}",
            site,
            HardwareProfile(speed=speed),
            slots=slots,
            domain=site,
            cost_rate=cost_rates[idx % len(cost_rates)],
        )
        if reservable:
            node.enable_reservations()
        container = ApplicationContainer(
            env,
            f"ac{idx + 1}",
            node,
            services={svc.name: svc for svc in end_user_services},
            failures=failures,
            require_auth=secure,
        )
        fleet.append(container)
        broker.advertise_node(node)
        if end_user_services:
            broker.advertise(
                ContainerAd(
                    container=container.name,
                    site=site,
                    services=[svc.name for svc in end_user_services],
                    speed=speed,
                    advertised_at=0.0,
                    node=node.name,
                )
            )
        information.register_offering(
            container.name, "application-container", site, container.name
        )
        for svc in end_user_services:
            information.register_offering(
                f"{svc.name}@{container.name}", "end-user", site, container.name
            )
    return fleet


def standard_environment(
    end_user_services: Sequence[EndUserService],
    containers: int = 3,
    speeds: Sequence[float] = (1.0, 2.0, 4.0),
    cost_rates: Sequence[float] = (1.0, 2.5, 6.0),
    slots: int = 4,
    reservable: bool = False,
    secure: bool = False,
    failure_probability: float = 0.0,
    failure_seed: int = 7,
    planner_config: GPConfig | None = None,
    planner_seed: int = 0,
    tracing: bool = True,
    spans: bool = False,
    journal: bool | str = False,
    plan_library: PlanLibrary | None = None,
    knowledge_base: KnowledgeBase | None = None,
) -> tuple[GridEnvironment, CoreServices, list[ApplicationContainer]]:
    """One-call Figure-1 grid: core services + *containers* application
    containers (each on its own node, cycling through :data:`SITES` and
    *speeds*, all hosting every end-user service), fully advertised.

    With ``failure_probability > 0`` every container invocation can fail,
    which is what the re-planning experiments dial up.  ``tracing=False``
    selects the router fast path (no per-delivery TraceEvents) for
    throughput runs; id streams are unaffected.  ``spans=True`` turns on
    the workflow span recorder (see :mod:`repro.obs.spans`); ``journal``
    does too, since the case journal is filed from span boundaries.
    """
    env = GridEnvironment(tracing=tracing, spans=spans, journal=journal)
    credentials = ("coordination", "grid-secret") if secure else None
    services = build_core_services(
        env,
        planner_config=planner_config,
        planner_seed=planner_seed,
        coordination_credentials=credentials,
        plan_library=plan_library,
        knowledge_base=knowledge_base,
    )
    if secure:
        services.authentication.add_principal(*credentials)
    fleet = _add_fleet(
        env, services.information, services.brokerage, end_user_services,
        containers=containers, speeds=speeds, cost_rates=cost_rates, slots=slots,
        reservable=reservable, secure=secure,
        failure_probability=failure_probability, failure_seed=failure_seed,
    )
    return env, services, fleet
