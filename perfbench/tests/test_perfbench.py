"""Self-tests of the benchmark's own machinery.

Run from the checkout root: ``python3 -m pytest perfbench/tests``.
"""

import json
import socket
import subprocess
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import procs
import tracing
from tracing import Span, self_times, union_seconds
from workloads import (
    check_detections,
    check_digest,
    graph_digest,
)


def _span(sid, start, end, parent=0, name="x", pid=1):
    return Span(sid, name, start, end, parent, 0, 1, pid)


# -- span arithmetic -------------------------------------------------------
def test_union_merges_overlaps_and_keeps_gaps():
    assert union_seconds([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_seconds([]) == 0.0


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span(1, 0.0, 10.0),             # root
        _span(2, 1.0, 4.0, parent=1),    # child
        _span(3, 2.0, 3.0, parent=2),    # grandchild: only child's cost
        _span(4, 3.5, 6.0, parent=1),    # child overlapping the first
        _span(5, 8.0, 12.0, parent=1),   # child running past the root
    ]
    selfs = self_times(spans)
    assert selfs[(1, 1)] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[(1, 2)] == pytest.approx(2.0)
    assert selfs[(1, 3)] == pytest.approx(1.0)
    assert selfs[(1, 4)] == pytest.approx(2.5)
    assert selfs[(1, 5)] == pytest.approx(4.0)


def test_self_time_keys_are_per_process():
    spans = [_span(1, 0.0, 4.0, pid=10), _span(2, 1.0, 2.0, 1, pid=10),
             _span(1, 0.0, 4.0, pid=11)]
    selfs = self_times(spans)
    assert selfs[(10, 1)] == pytest.approx(3.0)
    assert selfs[(11, 1)] == pytest.approx(4.0)


def test_tracer_records_parents_and_generator_items():
    tracer = tracing.Tracer()

    def inner(n):
        return list(range(n))

    def outer():
        return wrapped_inner(3)

    def numbers():
        yield 1
        yield 2

    wrapped_inner = tracer.wrap_call("inner", inner, count=len)
    wrapped_outer = tracer.wrap_call("outer", outer)
    wrapped_gen = tracer.wrap_gen("gen", numbers)

    wrapped_outer()
    assert tracer.take() == []  # recording is off by default
    tracer.set_enabled(True)
    assert wrapped_outer() == [0, 1, 2]
    assert list(wrapped_gen()) == [1, 2]
    spans = {s.name: s for s in tracer.take() if s.name != "gen"}
    assert spans["inner"].parent == spans["outer"].id
    assert spans["inner"].items == 3
    assert spans["outer"].parent == 0


def test_tracer_keeps_parents_per_thread():
    tracer = tracing.Tracer()
    tracer.set_enabled(True)
    barrier = threading.Barrier(2)

    def leaf():
        return None

    wrapped_leaf = tracer.wrap_call("leaf", leaf)

    def body():
        barrier.wait(timeout=5)
        wrapped_leaf()

    wrapped_body = tracer.wrap_call("body", body)
    threads = [threading.Thread(target=wrapped_body) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    spans = tracer.take()
    bodies = {s.thread: s.id for s in spans if s.name == "body"}
    for s in spans:
        if s.name == "leaf":
            assert s.parent == bodies[s.thread]


def test_install_skips_functions_the_program_lacks():
    tracer = tracing.Tracer()
    try:
        tracer.install([
            ("x", "repro.no_such_module", "f", "call", None),
            ("y", "repro.netflow.flow_assembler", "FlowAssembler.no_such",
             "call", None),
        ])
    finally:
        tracer.uninstall()
    assert tracer.missing == [
        "repro.no_such_module.f",
        "repro.netflow.flow_assembler.FlowAssembler.no_such",
    ]


# -- correctness gate --------------------------------------------------------
def _graph():
    rng = np.random.default_rng(0)
    return SimpleNamespace(
        src=rng.integers(0, 100, 50),
        dst=rng.integers(0, 100, 50),
        edge_properties={"IN_BYTES": rng.random(50), "PROTOCOL":
                         rng.integers(0, 3, 50).astype(np.int8)},
    )


@pytest.mark.parametrize("column", ["src", "dst", "IN_BYTES", "PROTOCOL"])
def test_gate_rejects_one_flipped_value(column):
    good = _graph()
    bad = _graph()
    arr = getattr(bad, column, None)
    if arr is None:
        arr = bad.edge_properties[column]
    arr[17] = arr[17] + 1
    reference = graph_digest(good)
    assert check_digest("w", graph_digest(good), reference) == []
    assert check_digest("w", graph_digest(bad), reference)


def _reference():
    return {
        "detections": [[10.5, "syn_flood", 7, "destination"],
                       [40.5, "host_scan", 8, "destination"]],
        "time_to_detection": {"syn_flood": 0.5, "host_scan": 0.5},
    }


def test_gate_accepts_matching_detections():
    ref = _reference()
    assert check_detections(
        [list(r) for r in ref["detections"]],
        dict(ref["time_to_detection"]), ref,
    ) == []


def test_gate_rejects_a_missing_alarm():
    ref = _reference()
    problems = check_detections(
        ref["detections"][:1],
        {"syn_flood": 0.5, "host_scan": None}, ref,
    )
    assert any("differ" in p for p in problems)
    assert any("host_scan was not detected" in p for p in problems)


def test_a_reference_differing_from_the_record_fails_the_run(tmp_path):
    import run

    bench = run.Run(
        SimpleNamespace(workload="pgpba-serial", seed=1), tmp_path
    )
    state = {"reference": "0" * 32}
    bench.check_recorded(state)
    assert (bench.attempted, bench.failed) == (1, 1)
    assert state["reference"] == run._load_references()["pgpba-serial"]["1"]


# -- residue check -----------------------------------------------------------
def _not_processes(found):
    # This test process shares its session with whatever started pytest,
    # so only the other kinds of residue are compared here; the process
    # checks run in a session of their own below.
    return [item for item in found if not item.startswith("process ")]


def test_residue_names_files_shm_and_ports(tmp_path):
    from multiprocessing import shared_memory

    ledger = str(tmp_path / "ledger")
    watched = tmp_path / "tmp"
    watched.mkdir()
    procs.install_shm_ledger(ledger)
    try:
        before = procs.snapshot([watched], ledger)
        (watched / "spill-0001.blk").write_bytes(b"x")
        seg = shared_memory.SharedMemory(create=True, size=4096)
    finally:
        procs.install_shm_ledger(None)
    sock = socket.socket()
    try:
        sock.bind(("127.0.0.1", 0))
        sock.listen()
        port = sock.getsockname()[1]
        found = procs.residue(before, procs.snapshot([watched], ledger))
        assert any(item.endswith("spill-0001.blk") for item in found)
        assert f"shm /dev/shm/{seg.name.lstrip('/')}" in found
        assert f"port tcp:{port}" in found
    finally:
        sock.close()
        seg.close()
        seg.unlink()
    (watched / "spill-0001.blk").unlink()
    after = procs.snapshot([watched], ledger)
    assert _not_processes(procs.residue(before, after)) == []


_STRANGER = """
import os, socket, time
r, w = os.pipe()
if os.fork() == 0:
    os.setsid()
    null = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(null, fd)
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    s.listen()
    os.write(w, f"{os.getpid()} {s.getsockname()[1]}".encode())
    time.sleep(60)
    os._exit(0)
print(os.read(r, 100).decode(), flush=True)
"""


def test_residue_ignores_segments_and_ports_of_other_processes(tmp_path):
    import os
    import signal
    from multiprocessing import shared_memory

    ledger = str(tmp_path / "ledger")
    before = procs.snapshot(ledger=ledger)
    # A segment created without the ledger, and a port held by a process
    # in another session that is not this one's descendant, belong to
    # someone else.
    seg = shared_memory.SharedMemory(create=True, size=4096)
    out = subprocess.run([sys.executable, "-c", _STRANGER],
                         capture_output=True, text=True, timeout=30)
    pid, port = map(int, out.stdout.split())
    try:
        after = procs.snapshot(ledger=ledger)
        assert _not_processes(procs.residue(before, after)) == []
        assert pid not in after.processes
        assert f"tcp:{port}" in procs._listening_inodes().values()
    finally:
        os.kill(pid, signal.SIGKILL)
        seg.close()
        seg.unlink()


_LEAKER = """
import json, subprocess, sys
from multiprocessing import shared_memory
import procs

ledger = sys.argv[1]
procs.install_shm_ledger(ledger)
initial = procs.snapshot(ledger=ledger)
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
seg = shared_memory.SharedMemory(create=True, size=4096)
seg.close()
found = procs.residue(initial, procs.snapshot(ledger=ledger))
killed = procs.kill_leftovers(initial, ledger)
left = procs.residue(initial, procs.snapshot(ledger=ledger))
print(json.dumps({"child": child.pid, "seg": seg.name.lstrip("/"),
                  "found": found, "killed": killed, "left": left}))
"""


def test_residue_check_and_clean_up_in_an_own_session(tmp_path):
    """A process that leads its own session, as run.py does, leaks a child
    and a segment: the residue check names both, and the clean-up removes
    both and leaves alone a process and a segment of another session."""
    import os
    from multiprocessing import shared_memory

    bystander = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)"]
    )
    other_seg = shared_memory.SharedMemory(create=True, size=4096)
    try:
        out = subprocess.run(
            [sys.executable, "-c", _LEAKER, str(tmp_path / "ledger")],
            capture_output=True, text=True, timeout=60,
            start_new_session=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.returncode == 0, out.stderr
        leak = json.loads(out.stdout.splitlines()[-1])
        assert any(f"process {leak['child']} " in f for f in leak["found"])
        assert f"shm /dev/shm/{leak['seg']}" in leak["found"]
        assert leak["child"] in leak["killed"]
        assert leak["left"] == []
        assert not os.path.exists(f"/proc/{leak['child']}")
        assert not os.path.exists(f"/dev/shm/{leak['seg']}")
        assert bystander.poll() is None
        assert os.path.exists(f"/dev/shm/{other_seg.name.lstrip('/')}")
    finally:
        bystander.kill()
        bystander.wait(timeout=10)
        other_seg.close()
        other_seg.unlink()


def _vmrss(pid):
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("no VmRSS")


def test_pss_counts_pages_shared_after_fork_once():
    import os

    block = np.ones(64 * 1024 * 1024 // 8)  # 64 MiB, every page touched
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(w)
        os.read(r, 1)
        os._exit(0)
    os.close(r)
    try:
        rss = _vmrss(os.getpid()) + _vmrss(pid)
        pss = procs.pss_bytes() + procs.pss_bytes(pid)
        # Both RSS figures hold the whole block; the Pss sum holds it once.
        assert rss - pss >= 0.9 * block.nbytes
    finally:
        os.write(w, b"x")
        os.close(w)
        os.waitpid(pid, 0)


def test_tail_is_the_rule_percentile_at_100_samples():
    import run

    values = list(range(1, 101))
    value, pct = run._tail(values)
    assert pct == pytest.approx(90.0)
    assert value == pytest.approx(90.1)
    value, pct = run._tail(list(range(1, 201)))
    assert pct == pytest.approx(95.0)
    assert sum(v > value for v in range(1, 201)) == 10
