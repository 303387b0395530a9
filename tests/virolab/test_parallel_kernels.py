"""The threaded case-study kernels against the serial loops they replaced.

``reference_projections`` (POD), ``por``, ``p3dr`` and ``make_dataset``
run their projections through :func:`repro.virolab._parallel.parallel_map`
on a thread pool.  Every projection is made by the same call and every
result is assembled in serial order, so the outputs must equal the serial
loops kept below bit for bit, at any worker count.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import repro
from repro._util import as_rng
from repro.errors import VirolabError
from repro.virolab import (
    Dataset,
    backproject,
    make_dataset,
    make_initial_model,
    make_phantom,
    match_orientations,
    orientation_grid,
    p3dr,
    perturb_rotation,
    planning_problem,
    pod,
    por,
    process_description,
    project,
    random_rotations,
    reference_projections,
    setup_virolab_case,
    virolab_grid,
)
from repro.virolab import _parallel
from repro.virolab._parallel import parallel_map
from repro.virolab.p3dr import _ramp_filter
from repro.virolab.por import _corr
from tests.services.conftest import drive

#: Case-study sizes (``setup_virolab_case`` defaults).
SIZE, COUNT, NOISE = 24, 40, 0.05
#: A coarser POD grid than the case study's 128 x 12: the same code at an
#: eighth of the cost.
DIRECTIONS, INPLANE = 32, 6
#: Data seed 0 converges in one Cons1 pass, seed 5 in two.
DATA_SEEDS = (0, 5)
WORKER_COUNTS = (1, 2, 3)


@contextmanager
def forced_workers(count: int):
    """Run the kernels on *count* pool threads (1 = the serial loops)."""
    saved = _parallel._workers
    _parallel._reset(count)
    try:
        yield
    finally:
        _parallel._reset(saved)


# -- the serial loops the kernels replaced --------------------------------- #
def serial_reference_projections(model, rotations):
    size = model.shape[0]
    refs = np.empty((len(rotations), size, size))
    for i, rotation in enumerate(rotations):
        refs[i] = project(model, rotation)
    return refs


def serial_por(images, orientations, model, trials=12, magnitude=0.25, seed=0):
    rng = as_rng(seed)
    refined = orientations.copy()
    scores = np.empty(len(images))
    for i, image in enumerate(images):
        current = refined[i]
        best_score = _corr(image, project(model, current))
        for t in range(trials):
            scale = magnitude * (1.0 - t / (2.0 * trials))
            candidate = perturb_rotation(current, scale, rng)
            score = _corr(image, project(model, candidate))
            if score > best_score:
                best_score = score
                current = candidate
        refined[i] = current
        scores[i] = best_score
    return refined, scores


def serial_p3dr(images, orientations, lowpass=0.7):
    size = images.shape[1]
    volume = np.zeros((size, size, size))
    for image, rotation in zip(images, orientations):
        volume += backproject(image, rotation, size)
    volume /= len(images)
    if lowpass is not None:
        volume = _ramp_filter(volume, lowpass)
    volume -= volume.min()
    peak = volume.max()
    if peak > 0:
        volume /= peak
    return volume


def serial_make_dataset(volume, count=48, noise_sigma=0.05, seed=0):
    rng = as_rng(seed)
    rotations = random_rotations(count, rng)
    size = volume.shape[0]
    images = np.empty((count, size, size))
    for i in range(count):
        images[i] = project(volume, rotations[i])
    peak = float(np.abs(images).max()) or 1.0
    if noise_sigma > 0:
        images = images + rng.normal(0.0, noise_sigma * peak, size=images.shape)
    return Dataset(images=images, true_rotations=rotations, noise_sigma=noise_sigma)


def science(make_dataset_fn, projections_fn, p3dr_fn, por_fn, data_seed):
    """The case study's kernels chained as in ``run_pipeline``: dataset,
    POD matching, P3DR, then two POR + P3DR passes sharing one Generator
    (a second Cons1 pass).  Returns every intermediate array and the
    Generator's final state."""
    phantom = make_phantom(size=SIZE, seed=data_seed)
    initial = make_initial_model(phantom, seed=data_seed + 1)
    dataset = make_dataset_fn(phantom, count=COUNT, noise_sigma=NOISE, seed=data_seed + 2)
    images = dataset.images
    grid = orientation_grid(DIRECTIONS, INPLANE)
    refs = projections_fn(initial, grid)
    orientations, pod_scores = match_orientations(images, refs, grid)
    model = p3dr_fn(images, orientations)
    out = [dataset.images, dataset.true_rotations, refs, orientations, pod_scores, model]
    rng = as_rng(data_seed)
    even = np.arange(COUNT)[::2]
    for _ in range(2):
        orientations, scores = por_fn(images, orientations, model, trials=10, seed=rng)
        model = p3dr_fn(images, orientations)
        out += [orientations, scores, model, p3dr_fn(images[even], orientations[even])]
    return out, rng.bit_generator.state


@pytest.fixture(scope="module", params=DATA_SEEDS, ids=lambda s: f"seed{s}")
def serial_science(request):
    return request.param, science(
        serial_make_dataset, serial_reference_projections, serial_p3dr, serial_por,
        request.param,
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_kernels_equal_serial_loops(serial_science, workers):
    data_seed, (expected, expected_state) = serial_science
    with forced_workers(workers):
        actual, state = science(make_dataset, reference_projections, p3dr, por, data_seed)
    assert len(actual) == len(expected)
    for index, (a, e) in enumerate(zip(actual, expected)):
        assert np.array_equal(a, e), f"array {index} differs at {workers} workers"
    assert state == expected_state


def test_pod_equals_serial_matching():
    phantom = make_phantom(size=16, seed=3)
    images = make_dataset(phantom, count=6, noise_sigma=0.0, seed=4).images
    grid = orientation_grid(12, 4)
    expected = match_orientations(
        images, serial_reference_projections(phantom, grid), grid
    )
    with forced_workers(2):
        actual = pod(images, phantom, directions=12, inplane=4)
    assert np.array_equal(actual[0], expected[0])
    assert np.array_equal(actual[1], expected[1])


def _enact(workers: int) -> dict:
    with forced_workers(workers):
        env, core, _ = virolab_grid(containers=3)
        case = setup_virolab_case(core.storage, seed=0)
        return drive(
            env,
            core.coordination,
            lambda: core.coordination.call(
                "coordination",
                "execute-task",
                {
                    "process": process_description(),
                    "initial_data": case["initial_data"],
                    "payload_keys": case["payload_keys"],
                    "work": case["work"],
                    "problem": planning_problem(),
                    "task": "3DSD",
                },
            ),
            max_events=5_000_000,
        )


def test_grid_enactment_identical_at_one_and_two_workers():
    serial, threaded = _enact(1), _enact(2)
    assert serial["status"] == threaded["status"] == "completed"
    assert serial["activities_run"] == threaded["activities_run"]
    assert serial["data"]["D12"]["Value"] == threaded["data"]["D12"]["Value"]


# -- the helper ------------------------------------------------------------- #
def test_results_in_input_order_whatever_the_completion_order():
    def slow_first(x):
        time.sleep(0.02 * (5 - x))
        return x * x

    with forced_workers(3):
        assert parallel_map(slow_first, range(6)) == [0, 1, 4, 9, 16, 25]


def test_worker_exception_reaches_the_caller():
    def fail_on_three(x):
        if x == 3:
            raise VirolabError("bad item")
        return x

    with forced_workers(2), pytest.raises(VirolabError, match="bad item"):
        parallel_map(fail_on_three, range(6))


def test_one_worker_or_one_item_runs_in_the_calling_thread():
    caller = threading.get_ident()
    with forced_workers(1):
        assert parallel_map(lambda _: threading.get_ident(), range(4)) == [caller] * 4
        assert _parallel._pool is None
    with forced_workers(2):
        assert parallel_map(lambda _: threading.get_ident(), [0]) == [caller]
        assert _parallel._pool is None


def run_script(script: str) -> str:
    """Run *script* in a fresh interpreter (killed after a minute, so a
    deadlock fails the test instead of hanging it); returns its stdout."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_nested_call_from_a_pool_thread_runs_serially():
    """A pool thread that submitted to its own pool and waited would
    deadlock once every thread did so; nested calls run inline."""
    script = (
        "import threading\n"
        "from repro.virolab import _parallel\n"
        "_parallel._reset(2)\n"
        "def inner_threads(_):\n"
        "    return len(set(_parallel.parallel_map(lambda _: threading.get_ident(), range(4))))\n"
        "print(_parallel.parallel_map(inner_threads, range(4)))\n"
    )
    assert run_script(script) == "[1, 1, 1, 1]"


def _pod_in_child():
    assert _parallel._pool is None  # the parent's pool is not inherited
    phantom = make_phantom(size=16, seed=3)
    images = make_dataset(phantom, count=6, noise_sigma=0.0, seed=4).images
    return pod(images, phantom, directions=12, inplane=4)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork"
)
def test_forked_child_runs_pod_after_the_pool_started():
    with forced_workers(2):
        # Both pool threads start (each sleeps while the next is submitted)
        # and then sit idle, as after a case study.
        parallel_map(time.sleep, [0.05] * 4)
        assert _parallel._pool is not None
        executor = ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("fork")
        )
        try:
            future = executor.submit(_pod_in_child)
            try:
                orientations, scores = future.result(timeout=60)
            except FutureTimeout:
                # A child stuck on the parent's dead pool would never exit.
                for process in executor._processes.values():
                    process.kill()
                raise
        finally:
            executor.shutdown()
        phantom = make_phantom(size=16, seed=3)
        images = make_dataset(phantom, count=6, noise_sigma=0.0, seed=4).images
        expected = pod(images, phantom, directions=12, inplane=4)
    assert np.array_equal(orientations, expected[0])
    assert np.array_equal(scores, expected[1])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_one_cpu_affinity_creates_no_pool():
    script = (
        "import os, threading\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from repro.virolab import _parallel, make_dataset, make_phantom, pod\n"
        "phantom = make_phantom(size=16, seed=3)\n"
        "images = make_dataset(phantom, count=6, noise_sigma=0.0, seed=4).images\n"
        "pod(images, phantom, directions=12, inplane=4)\n"
        "caller = threading.get_ident()\n"
        "assert _parallel.parallel_map(lambda _: threading.get_ident(), range(4)) == [caller] * 4\n"
        "assert _parallel._workers == 1, _parallel._workers\n"
        "assert _parallel._pool is None\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "print('serial')\n"
    )
    assert run_script(script) == "serial"
