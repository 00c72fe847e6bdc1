"""Full cyclic-GC collections are deferred inside the analysis entry
points, the caller's thresholds always come back, and an analysis leaves
no reference cycles of its own behind."""

import gc
import sys
import threading
import types
from pathlib import Path

import pytest

from repro import gcscope
from repro.benchsuite.suite import load_program, spec_by_name
from repro.cfront import cparser
from repro.cfront.sema import Program
from repro.checker import runner
from repro.checker.checks import ALL_CHECKS
from repro.checker.engine import check_source
from repro.constinfer import engine
from repro.gcscope import DEFERRED_GEN2_THRESHOLD, defer_full_collections

CALLER = (600, 9, 8)
REPO = Path(__file__).resolve().parent.parent
REPRO_DIR = str(Path(gcscope.__file__).resolve().parent)


@pytest.fixture(autouse=True)
def caller_thresholds():
    saved = gc.get_threshold()
    gc.set_threshold(*CALLER)
    yield
    gc.set_threshold(*saved)


@defer_full_collections
def thresholds():
    return gc.get_threshold()


@defer_full_collections
def nested():
    inside = gc.get_threshold()
    assert thresholds() == inside
    return inside, gc.get_threshold()


@defer_full_collections
def fails():
    raise ValueError("boom")


def test_raises_only_generation_two_and_restores():
    assert thresholds() == (600, 9, DEFERRED_GEN2_THRESHOLD)
    assert gc.get_threshold() == CALLER


def test_restores_after_an_exception():
    with pytest.raises(ValueError, match="boom"):
        fails()
    assert gc.get_threshold() == CALLER


def test_nested_calls_restore_on_outermost_exit():
    inside, after_inner = nested()
    assert inside == after_inner == (600, 9, DEFERRED_GEN2_THRESHOLD)
    assert gc.get_threshold() == CALLER


def test_overlapping_threads_restore_when_the_last_one_leaves():
    first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    @defer_full_collections
    def first():
        first_in.set()
        second_in.wait(5)

    @defer_full_collections
    def second():
        second_in.set()
        first_out.wait(5)
        seen["after_first_left"] = gc.get_threshold()

    a = threading.Thread(target=first)
    b = threading.Thread(target=second)
    a.start()
    first_in.wait(5)
    b.start()
    a.join(5)
    first_out.set()
    b.join(5)
    assert not a.is_alive() and not b.is_alive()
    assert seen["after_first_left"][2] == DEFERRED_GEN2_THRESHOLD
    assert gc.get_threshold() == CALLER


def test_many_threads_never_lose_the_depth_count():
    # A lost update to the depth counter would restore the thresholds
    # while another thread is still inside, or never restore them.
    outside = []

    @defer_full_collections
    def inside():
        if gc.get_threshold()[2] != DEFERRED_GEN2_THRESHOLD:
            outside.append(threading.current_thread().name)

    def hammer():
        for _ in range(300):
            inside()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert outside == []
    assert gc.get_threshold() == CALLER


def test_entry_points_keep_their_names():
    # Callers (and tracers) find these by module attribute and name.
    for module, name in (
        (cparser, "parse_c"),
        (engine, "run_mono"),
        (engine, "run_poly"),
        (engine, "run_polyrec"),
        (runner, "analyze"),
    ):
        fn = getattr(module, name)
        assert fn.__name__ == name
        assert fn.__module__ == module.__name__
        assert hasattr(fn, "__wrapped__")


SOURCE = """
int *shared;
int leaf_a(int *p) { return *p; }
int leaf_b(const char *s) { return s ? 1 : 0; }
int leaf_c(int *q) { *q = 1; return 0; }
int top(void) { return leaf_a(shared) + leaf_b("x") + leaf_c(shared); }
"""


def test_wavefront_workers_run_deferred_and_thresholds_come_back(monkeypatch):
    original = engine._analyze_component
    seen = []

    def recording(*args):
        seen.append((threading.current_thread().name, gc.get_threshold()[2]))
        return original(*args)

    monkeypatch.setattr(engine, "_analyze_component", recording)
    engine.run_poly(Program.from_source(SOURCE), jobs=2)
    assert any(name.startswith("wavefront") for name, _ in seen)
    assert {gen2 for _, gen2 in seen} == {DEFERRED_GEN2_THRESHOLD}
    assert gc.get_threshold() == CALLER


@pytest.fixture(scope="module")
def woman():
    return load_program(spec_by_name("woman-3.0a"))[0]


def test_no_full_collection_inside_run_mono(woman):
    gc.set_threshold(700, 10, 10)
    collections = []

    def hook(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        engine.run_mono(woman)
    finally:
        gc.callbacks.remove(hook)
    assert 0 in collections
    assert 2 not in collections


def _defined_in_repro(obj) -> bool:
    if type(obj).__module__.startswith("repro."):
        return True
    code = None
    if isinstance(obj, types.FunctionType):
        code = obj.__code__
    elif isinstance(obj, types.FrameType):
        code = obj.f_code
    elif isinstance(obj, types.GeneratorType):
        code = obj.gi_code
    return code is not None and code.co_filename.startswith(REPRO_DIR)


def _repro_garbage(work) -> list[str]:
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        work()
        gc.collect()
        return sorted(
            {
                getattr(o, "__qualname__", type(o).__qualname__)
                for o in gc.garbage
                if _defined_in_repro(o)
            }
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_table1_inference_leaves_no_cyclic_garbage(woman):
    def work():
        engine.run_mono(woman)
        engine.run_poly(woman)

    assert _repro_garbage(work) == []


def test_checker_corpus_leaves_no_cyclic_garbage():
    # Every check, so the flowsens lowering and resource pack run too.
    paths = sorted((REPO / "examples" / "checker_corpus").glob("*.c"))
    assert paths

    def work():
        for path in paths:
            check_source(path.read_text(), str(path), tuple(ALL_CHECKS))

    assert _repro_garbage(work) == []
