"""Residue and memory of the benchmark's own processes, from ``/proc``.

Residue is what a finished operation leaves behind: a process, a
``/dev/shm/psm_*`` shared-memory segment, a file in the benchmark's temp
or spill directory, or a listening TCP port.  :func:`snapshot` records
all four; :func:`residue` names what a later snapshot has that an earlier
one did not.

Everything is scoped to what the benchmark owns.  ``run.py`` runs the
measured body as the leader of a session of its own, so "the processes of
this session" are the benchmark and everything it started, orphans
included.  A segment is the benchmark's when one of its processes created
it: :func:`install_shm_ledger` appends the name of every segment a
process creates to a ledger file, and the program's worker processes
inherit that across fork or load it through ``hook/sitecustomize.py``.  A
port is the benchmark's when one of its processes holds the socket.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

__all__ = [
    "SHM_LEDGER_ENV",
    "Snapshot",
    "snapshot",
    "residue",
    "wait_for_no_residue",
    "descendants",
    "session_processes",
    "install_shm_ledger",
    "kill_leftovers",
    "kill_session",
    "pss_bytes",
    "RssSampler",
]

SHM_LEDGER_ENV = "PERFBENCH_SHM_LEDGER"
_SHM_DIR = "/dev/shm"
_TCP_TABLES = ("/proc/net/tcp", "/proc/net/tcp6")
_LISTEN = "0A"


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            raw = fh.read()
    except OSError:
        return None
    # comm may hold spaces or parentheses: split after the last ")".
    rest = raw[raw.rindex(")") + 2:].split()
    return rest  # rest[0] = state, rest[1] = ppid, rest[3] = session


def _all_pids() -> list[int]:
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return "?"


def descendants(root: int | None = None) -> set[int]:
    """Live (non-zombie) descendants of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for pid in _all_pids():
        fields = _stat_fields(pid)
        if fields is None or fields[0] == "Z":
            continue
        children.setdefault(int(fields[1]), []).append(pid)
    out: set[int] = set()
    todo = [root]
    while todo:
        for child in children.get(todo.pop(), ()):
            if child not in out:
                out.add(child)
                todo.append(child)
    return out


def _session_members(sid: int) -> set[int]:
    out = set()
    for pid in _all_pids():
        fields = _stat_fields(pid)
        if fields is not None and fields[0] != "Z" and int(fields[3]) == sid:
            out.add(pid)
    return out


def session_processes() -> set[int]:
    """Live processes of this process's session and its descendants, other
    than itself.  An orphan re-parented to init keeps its session, so this
    also catches children whose parent died without reaping them."""
    return (_session_members(os.getsid(0)) | descendants()) - {os.getpid()}


# -- shared memory --------------------------------------------------------
_ORIGINAL_SHM_INIT = None


def install_shm_ledger(path: str | None) -> None:
    """Append the name of every shared-memory segment this process (and
    any child it forks later) creates to ``path``; ``None`` uninstalls."""
    from multiprocessing import shared_memory

    global _ORIGINAL_SHM_INIT
    cls = shared_memory.SharedMemory
    if _ORIGINAL_SHM_INIT is not None:
        cls.__init__ = _ORIGINAL_SHM_INIT
        _ORIGINAL_SHM_INIT = None
    if path is None:
        return
    original = _ORIGINAL_SHM_INIT = cls.__init__

    def __init__(self, name=None, create=False, size=0, **kwargs):
        original(self, name, create, size, **kwargs)
        if create:
            fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
            try:
                os.write(fd, f"{self.name.lstrip('/')}\n".encode())
            finally:
                os.close(fd)

    cls.__init__ = __init__


def _owned_segments(ledger: str | None) -> set[str]:
    """Segments named in ``ledger`` that still exist."""
    if ledger is None:
        return set()
    try:
        with open(ledger) as fh:
            created = set(fh.read().split())
        present = set(os.listdir(_SHM_DIR))
    except OSError:
        return set()
    return created & present


# -- listening ports ------------------------------------------------------
def _listening_inodes() -> dict[str, str]:
    """Socket inode -> ``tcp:<port>`` for every listening TCP socket."""
    out = {}
    for table in _TCP_TABLES:
        try:
            with open(table) as fh:
                lines = fh.readlines()[1:]
        except OSError:
            continue
        for line in lines:
            cols = line.split()
            if len(cols) > 9 and cols[3] == _LISTEN:
                port = int(cols[1].rsplit(":", 1)[1], 16)
                out[cols[9]] = f"tcp:{port}"
    return out


def _ports_held_by(pids) -> set[str]:
    listening = _listening_inodes()
    ports = set()
    for pid in pids:
        try:
            fds = os.listdir(f"/proc/{pid}/fd")
        except OSError:
            continue
        for fd in fds:
            try:
                target = os.readlink(f"/proc/{pid}/fd/{fd}")
            except OSError:
                continue
            if target.startswith("socket:["):
                port = listening.get(target[8:-1])
                if port is not None:
                    ports.add(port)
    return ports


# -- snapshots ------------------------------------------------------------
def _files_under(dirs) -> set[str]:
    out = set()
    for top in dirs:
        for dirpath, dirnames, filenames in os.walk(top):
            out.update(os.path.join(dirpath, n) for n in filenames)
            out.update(os.path.join(dirpath, n) for n in dirnames)
    return out


@dataclass(frozen=True)
class Snapshot:
    processes: frozenset
    shm: frozenset
    files: frozenset
    ports: frozenset


def snapshot(watched_dirs=(), ledger: str | None = None) -> Snapshot:
    """This session's processes, the segments named in ``ledger``, files
    under ``watched_dirs`` and the ports this session listens on, as they
    are now."""
    processes = session_processes()
    return Snapshot(
        processes=frozenset(processes),
        shm=frozenset(_owned_segments(ledger)),
        files=frozenset(_files_under(watched_dirs)),
        ports=frozenset(_ports_held_by(processes | {os.getpid()})),
    )


def _is_owned_tracker(pid: int, owners) -> bool:
    """A multiprocessing resource tracker serves its parent for the
    parent's whole life; it is residue only once that parent is gone."""
    fields = _stat_fields(pid)
    return (
        fields is not None
        and int(fields[1]) in owners
        and "multiprocessing.resource_tracker" in _cmdline(pid)
    )


def residue(before: Snapshot, after: Snapshot) -> list[str]:
    """Names of everything ``after`` holds that ``before`` did not."""
    owners = set(before.processes) | {os.getpid()}
    found = [
        f"process {pid} ({_cmdline(pid)[:80].strip()})"
        for pid in sorted(after.processes - before.processes)
        if not _is_owned_tracker(pid, owners)
    ]
    found += [f"shm {_SHM_DIR}/{n}" for n in sorted(after.shm - before.shm)]
    found += [f"file {p}" for p in sorted(after.files - before.files)]
    found += [f"port {p}" for p in sorted(after.ports - before.ports)]
    return found


def wait_for_no_residue(
    before: Snapshot, watched_dirs=(), ledger: str | None = None,
    grace: float = 2.0,
) -> list[str]:
    """Residue left after ``grace`` seconds.  Processes that a closed
    executor has signalled may need a moment to exit; anything still
    present after the grace period is residue."""
    deadline = time.monotonic() + grace
    while True:
        found = residue(before, snapshot(watched_dirs, ledger))
        if not found or time.monotonic() >= deadline:
            return found
        time.sleep(0.02)


# -- cleanup --------------------------------------------------------------
def _kill_and_wait(pids) -> None:
    """SIGKILL ``pids`` and wait until each has ended, reaping those that
    are this process's children."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    for pid in pids:
        while time.monotonic() < deadline:
            try:
                if os.waitpid(pid, os.WNOHANG)[0]:
                    break
            except ChildProcessError:
                # Not our child: it has ended once /proc shows it gone or
                # a zombie awaiting its own parent.
                fields = _stat_fields(pid)
                if fields is None or fields[0] == "Z":
                    break
            time.sleep(0.01)


def kill_leftovers(initial: Snapshot, ledger: str | None = None) -> list[int]:
    """Kill every process of this session that ``initial`` did not hold,
    wait until each has ended, then unlink the segments named in
    ``ledger`` that ``initial`` did not hold."""
    leftovers = sorted(session_processes() - initial.processes)
    _kill_and_wait(leftovers)
    for name in _owned_segments(ledger) - initial.shm:
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
        except FileNotFoundError:
            pass
    return leftovers


def kill_session(sid: int) -> list[int]:
    """Kill every live process of session ``sid`` and wait for each."""
    members = sorted(_session_members(sid) - {os.getpid()})
    _kill_and_wait(members)
    return members


# -- memory ---------------------------------------------------------------
def pss_bytes(pid: int | str = "self") -> int:
    """Proportional set size of one process, 0 if gone.  Pages shared
    with other processes (copy-on-write after fork, shared-memory
    segments) are split between them, so a sum over processes counts each
    page once."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


class RssSampler:
    """Peak of the summed Pss of this process and its live descendants,
    sampled on a background thread every ``interval`` seconds."""

    def __init__(self, interval: float = 0.1) -> None:
        import threading

        self.interval = interval
        self.peak_bytes = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="perfbench-rss", daemon=True
        )

    def sample(self) -> None:
        with self._lock:
            total = pss_bytes()
            for pid in descendants():
                total += pss_bytes(pid)
            self.peak_bytes = max(self.peak_bytes, total)

    def take_peak(self) -> int:
        """The peak since the last call (or the start), and start anew."""
        self.sample()
        with self._lock:
            peak, self.peak_bytes = self.peak_bytes, 0
        return peak

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
