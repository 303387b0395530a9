"""Environment bootstrap: bring up the Figure-1 architecture in one call.

:func:`build_core_services` attaches the eleven core services to an
environment; :func:`standard_environment` additionally creates nodes and
application containers hosting the given end-user services and advertises
them to the information and brokerage services — everything the paper's
Figure 1 shows, ready for a coordination request — as the grid's one-shard
form.  :func:`sharded_environment` replicates the per-case services into
two or more shard groups behind one bus; both create their fleet through
the same helper.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

from repro.grid.container import ApplicationContainer, EndUserService
from repro.grid.environment import GridEnvironment
from repro.grid.node import HardwareProfile
from repro.grid.sharding import ShardRing, ShardRouter
from repro.ontology.frames import KnowledgeBase
from repro.planner.config import GPConfig
from repro.planner.library import PlanLibrary
from repro.services.authentication import AuthenticationService
from repro.services.base import WELL_KNOWN
from repro.services.brokerage import BrokerageService, ContainerAd
from repro.services.coordination import CoordinationService
from repro.services.information import InformationService
from repro.services.matchmaking import MatchmakingService
from repro.services.monitoring import MonitoringService
from repro.services.ontology_service import OntologyService
from repro.services.planning import PlanningService
from repro.services.scheduling import SchedulingService
from repro.services.sharded import PartitionedBrokerageService
from repro.services.simulation_service import SimulationService
from repro.services.storage import PersistentStorageService
from repro.sim.failures import BernoulliFailures

__all__ = [
    "CoreServices",
    "SITES",
    "ShardGroup",
    "ShardedGridEnvironment",
    "build_core_services",
    "sharded_environment",
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
    brokers: Sequence[BrokerageService],
    owner: Callable[[str], BrokerageService],
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
    every end-user service, advertised to *information* and *brokers*.

    Every broker records every node (nodes are few and shard-agnostic);
    a container's ad for a service goes to ``owner(service)``.
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
        for broker in brokers:
            broker.advertise_node(node)
            owned = [
                svc.name for svc in end_user_services if owner(svc.name) is broker
            ]
            if owned:
                broker.advertise(
                    ContainerAd(
                        container=container.name,
                        site=site,
                        services=owned,
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

    This is the grid's one-shard form: every core service is a singleton
    under its well-known name and the bus rewrites no receiver.  With
    ``failure_probability > 0`` every container invocation can fail,
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
    broker = services.brokerage
    fleet = _add_fleet(
        env, services.information, [broker], lambda service: broker, end_user_services,
        containers=containers, speeds=speeds, cost_rates=cost_rates, slots=slots,
        reservable=reservable, secure=secure,
        failure_probability=failure_probability, failure_seed=failure_seed,
    )
    return env, services, fleet


# -- sharded multi-coordinator grid ----------------------------------------- #
@dataclass
class ShardGroup:
    """One coordination/scheduling shard: the per-case service replicas.

    Each group carries its own coordinator, scheduler, matchmaker, broker
    partition and ontology replica, wired to each other by concrete agent
    names (the coordinator's ``matchmaker_name`` etc. point inside the
    group), so a case routed to this shard runs its whole enactment loop
    without crossing shards — except for registry lookups the group's
    broker partition does not own, which scatter (see
    :class:`~repro.services.sharded.PartitionedBrokerageService`).
    """

    shard: str
    brokerage: PartitionedBrokerageService
    matchmaking: MatchmakingService
    scheduling: SchedulingService
    coordination: CoordinationService
    ontology: OntologyService


@dataclass
class ShardedGridEnvironment:
    """A grid whose per-case core services are replicated across shards.

    ``services`` is the familiar :class:`CoreServices` view — the shared
    singletons (information, monitoring, storage, authentication,
    simulation, planning, the ontology *primary*) plus shard group 0's
    replicas for the sharded types.  ``ring`` is the shard membership the
    bus's :class:`~repro.grid.sharding.ShardRouter` (``env.router.
    sharding``) routes on.
    """

    env: GridEnvironment
    services: CoreServices
    groups: list[ShardGroup]
    ring: ShardRing
    fleet: list[ApplicationContainer]

    def group_for(self, case_id: str) -> ShardGroup:
        """The shard group that owns *case_id* on the ring."""
        owner = self.ring.owner(str(case_id))
        for group in self.groups:
            if group.shard == owner:
                return group
        raise KeyError(owner)  # pragma: no cover - ring and groups agree


def sharded_environment(
    end_user_services: Sequence[EndUserService],
    shards: int = 2,
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
) -> ShardedGridEnvironment:
    """Figure-1 grid with *shards* (at least two) replicated
    coordination/scheduling groups behind one bus.

    The singleton services of :func:`standard_environment` stay shared
    (information, monitoring, storage, authentication, simulation,
    planning, and the ontology *primary*); coordination, scheduling,
    matchmaking and brokerage are replicated per shard under the labels
    ``s0..s{shards-1}`` (``coordination@s0`` ...).  Case traffic
    addressed to the logical ``coordination`` name is rewritten at the
    bus to the owning shard's coordinator by consistent hash of the case
    id; the end-user service registry is partitioned across the broker
    replicas by service name on the same ring, with cross-shard scatter
    on a local miss.  Ontology replicas follow the primary through its
    versioned delta stream and catch up over ``ontology-sync`` on join.
    The one-shard grid is :func:`standard_environment`.
    """
    if shards < 2:
        raise ValueError(
            f"sharded_environment needs at least two shards, not {shards}; "
            "the one-shard grid is standard_environment"
        )
    labels = [f"s{index}" for index in range(shards)]
    ring = ShardRing(labels)

    def replica_names(kind: str) -> list[str]:
        return [f"{WELL_KNOWN[kind]}@{label}" for label in labels]

    env = GridEnvironment(tracing=tracing, spans=spans, journal=journal)
    credentials = ("coordination", "grid-secret") if secure else None
    information = InformationService(env)
    brokers = [
        PartitionedBrokerageService(env, name, ring, label)
        for name, label in zip(replica_names("brokerage"), labels)
    ]
    matchmakers = [MatchmakingService(env, name) for name in replica_names("matchmaking")]
    monitoring = MonitoringService(env)
    ontology = OntologyService(env)
    storage = PersistentStorageService(env)
    authentication = AuthenticationService(env)
    schedulers = [SchedulingService(env, name) for name in replica_names("scheduling")]
    simulation = SimulationService(env)
    # Planning stays a shared singleton across shards, so one library —
    # like one broker registry — serves every shard group: a plan stored
    # by a case on shard A warm-starts the same workflow on shard B, and
    # the storage mirror makes it visible to out-of-process replicas too.
    planning = PlanningService(
        env,
        config=planner_config,
        rng=planner_seed,
        library=plan_library,
        knowledge_base=knowledge_base,
    )
    coordinators = [
        CoordinationService(env, name, credentials=credentials)
        for name in replica_names("coordination")
    ]
    # Ontology replicas join last: they subscribe to the primary's delta
    # stream and catch up on whatever it published during bootstrap.
    ontologies: list[OntologyService] = []
    for name in replica_names("ontology"):
        replica = OntologyService(env, name, replica_of=ontology.name)
        ontology.subscribe_replica(replica.name)
        replica.start_replication()
        ontologies.append(replica)

    peers = {label: broker.name for label, broker in zip(labels, brokers)}
    groups = [
        ShardGroup(*members)
        for members in zip(labels, brokers, matchmakers, schedulers, coordinators, ontologies)
    ]
    for group in groups:
        group.brokerage.set_peers(peers)
        for service in (group.matchmaking, group.scheduling, group.coordination):
            service.shard = group.shard
            service.broker_name = group.brokerage.name
        group.coordination.matchmaker_name = group.matchmaking.name
        group.coordination.scheduler_name = group.scheduling.name
        if knowledge_base is not None:
            group.coordination.knowledge_base = knowledge_base

    services = CoreServices(
        information=information,
        brokerage=brokers[0],
        matchmaking=matchmakers[0],
        monitoring=monitoring,
        ontology=ontology,
        storage=storage,
        authentication=authentication,
        scheduling=schedulers[0],
        simulation=simulation,
        planning=planning,
        coordination=coordinators[0],
    )
    env.core_services = services  # type: ignore[attr-defined]
    if secure:
        authentication.add_principal(*credentials)

    # The bus-level routing seam: logical case traffic goes to the owning
    # coordinator (keyed on the case/task id), logical registry traffic to
    # the owning broker/matchmaker partition (keyed on the service name).
    env.router.sharding = ShardRouter(
        ring,
        targets={
            WELL_KNOWN["coordination"]: {g.shard: g.coordination.name for g in groups},
            WELL_KNOWN["brokerage"]: peers,
            WELL_KNOWN["matchmaking"]: {g.shard: g.matchmaking.name for g in groups},
        },
        keys={
            WELL_KNOWN["brokerage"]: ("service",),
            WELL_KNOWN["matchmaking"]: ("service",),
        },
    )
    by_label = dict(zip(labels, brokers))
    fleet = _add_fleet(
        env, information, brokers, lambda service: by_label[ring.owner(service)],
        end_user_services,
        containers=containers, speeds=speeds, cost_rates=cost_rates, slots=slots,
        reservable=reservable, secure=secure,
        failure_probability=failure_probability, failure_seed=failure_seed,
    )
    return ShardedGridEnvironment(
        env=env, services=services, groups=groups, ring=ring, fleet=fleet
    )
