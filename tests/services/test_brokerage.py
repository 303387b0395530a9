"""Brokerage: advertisements, performance DB, equivalence classes."""

from tests.services.conftest import drive


def test_find_containers(grid):
    env, services, fleet = grid
    user = services.coordination
    result = drive(
        env, user, lambda: user.call("brokerage", "find-containers", {"service": "POD"})
    )
    assert result["containers"] == ["ac1", "ac2", "ac3"]


def test_find_unknown_service_empty(grid):
    env, services, fleet = grid
    user = services.coordination
    result = drive(
        env, user, lambda: user.call("brokerage", "find-containers", {"service": "X"})
    )
    assert result["containers"] == []


def test_readvertise_replaces(grid):
    env, services, fleet = grid
    from repro.services import ContainerAd

    services.brokerage.advertise(
        ContainerAd("ac1", "siteA", ["ONLY"], 1.0, 0.0)
    )
    assert services.brokerage.containers_for("POD") == ["ac2", "ac3"]
    assert services.brokerage.containers_for("ONLY") == ["ac1"]


def test_performance_db(grid):
    env, services, fleet = grid
    user = services.coordination
    for duration, success in ((5.0, True), (7.0, True), (0.0, False)):
        drive(
            env,
            user,
            lambda d=duration, s=success: user.call(
                "brokerage",
                "record-performance",
                {"service": "POD", "container": "ac1", "duration": d, "success": s},
            ),
        )
    result = drive(
        env,
        user,
        lambda: user.call(
            "brokerage", "performance", {"service": "POD", "containers": ["ac1"]}
        ),
    )
    assert result["service"] == "POD"
    row = result["containers"]["ac1"]
    assert row["runs"] == 3
    assert row["success_rate"] == (2 / 3)
    assert row["mean_duration"] == 6.0


def test_performance_unknown_pair_optimistic(grid):
    env, services, fleet = grid
    user = services.coordination
    result = drive(
        env,
        user,
        lambda: user.call(
            "brokerage", "performance", {"service": "X", "containers": ["Y"]}
        ),
    )
    assert result["containers"] == {
        "Y": {"runs": 0, "success_rate": 1.0, "mean_duration": 0.0}
    }


def test_equivalence_classes_by_speed(grid):
    env, services, fleet = grid
    user = services.coordination
    result = drive(
        env,
        user,
        lambda: user.call(
            "brokerage", "equivalence-classes", {"key_paths": ["Hardware/Speed"]}
        ),
    )
    # standard_environment speeds cycle (1.0, 2.0, 4.0) over 3 nodes.
    assert len(result["classes"]) == 3
    all_nodes = sorted(
        name for group in result["classes"] for name in group["resources"]
    )
    assert all_nodes == ["node1", "node2", "node3"]


def test_container_info(grid):
    env, services, fleet = grid
    user = services.coordination
    result = drive(
        env, user, lambda: user.call("brokerage", "container-info", {"container": "ac2"})
    )
    assert result["known"] is True
    assert result["site"] == "siteB"
    assert "POD" in result["services"]
    missing = drive(
        env, user, lambda: user.call("brokerage", "container-info", {"container": "zz"})
    )
    assert missing["known"] is False
