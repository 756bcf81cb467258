"""Shared-memory plumbing of the process transport.

:class:`~repro.cluster.transport.ProcessTransport` agents drive the §4.2
window loop themselves; everything they exchange per window lives in
named ``multiprocessing.shared_memory`` segments the coordinator creates
at launch:

* one :class:`ControlBlock` — int64 words holding the abort word and,
  per agent, the FINISH-barrier sequence word, the double-buffered
  value the barrier reduces (the agent's next window, or its quiet
  horizon) and the published window cursor;
* one single-writer :class:`ShmRing` per ordered agent pair, carrying
  that channel's per-window record frame;
* one coordinator->agent :class:`ShmRing` per agent (its *inbox*) for
  administrative deliveries (:meth:`Transport.accept`).

Layout of one ring::

    [0:8)   slot_bytes          geometry, written once at create
    [8:16)  n_slots
    then n_slots slots, each:
      [0:8)   commit word: the frame's sequence number, written LAST —
              a reader that finds anything but the seq it expects caught
              a torn (half-written) frame or a protocol desync
      [8:32)  frame header <qqq>: kind, count, payload length
      [32:..) payload

A writer may reuse slot ``seq % n_slots`` only once it knows the reader
consumed ``seq - n_slots`` (ack-by-sequence, inferred from the barrier
protocol).  A record frame too large for a slot is written to a one-off
blob segment and the slot carries only its name (``KIND_BLOB``), so no
frame size can stall the window loop.

Record framing: one delivery ``(arrival_ps, node, row)`` is exactly
``2 + len(ROW_FIELDS)`` little-endian int64 words.

``unpack_records`` is deliberately a module-level hook: the conformance
suite's planted bug ``inject.torn_shm_read`` swaps it for one that
truncates multi-record frames — what a reader racing the writer past
the commit word would observe — and the fuzz loop must catch the loss.
"""

from __future__ import annotations

import os
import secrets
import struct
import time
from multiprocessing import resource_tracker, shared_memory
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import ClusterError
from ..protocols.packet import ROW_FIELDS, Row

#: Every segment this package creates starts with this prefix — the
#: conftest reaper and :func:`reap_orphans` key on it.
SEGMENT_PREFIX = "dons-shm-"

#: Frame kinds.
KIND_RECORDS = 1   #: packed delivery records
KIND_BLOB = 2      #: name of a blob segment holding a records payload

#: One record = (arrival_ps, node, *row) as little-endian int64 words.
WORDS_PER_RECORD = 2 + len(ROW_FIELDS)
RECORD_BYTES = 8 * WORDS_PER_RECORD

_GEOMETRY = struct.Struct("<qq")     # slot_bytes, n_slots
_COMMIT = struct.Struct("<q")        # sequence number, written last
_HEADER = struct.Struct("<qqq")      # kind, count, payload_len
_SLOT_OVERHEAD = _COMMIT.size + _HEADER.size

DEFAULT_SLOT_BYTES = 1 << 20
DEFAULT_SLOTS = 4


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "")
    try:
        return int(raw) if raw else default
    except ValueError:
        return default


def default_slot_bytes() -> int:
    return max(4096, _env_int("REPRO_SHM_SLOT_BYTES", DEFAULT_SLOT_BYTES))


def default_slots() -> int:
    return max(2, _env_int("REPRO_SHM_SLOTS", DEFAULT_SLOTS))


class TornFrameError(ClusterError):
    """A reader observed a slot whose commit word is not the frame it
    was told to read — the write was torn or the protocol desynced."""


class RingFull(ClusterError):
    """No free slot: the writer outran the protocol's consumption bound."""


# --- record / batch framing -------------------------------------------------

def pack_records(records: Sequence[Tuple[int, int, Row]]) -> bytes:
    """Flatten delivery records into little-endian int64 words."""
    flat: List[int] = []
    for t, node, row in records:
        flat.append(t)
        flat.append(node)
        flat.extend(row)
    return struct.pack(f"<{len(flat)}q", *flat)


def unpack_records(view, count: int) -> List[Tuple[int, int, Row]]:
    """Rebuild delivery records from a packed frame payload.

    Module-level on purpose: ``inject.torn_shm_read`` patches this to
    model a reader that raced the writer (see module doc).
    """
    flat = struct.unpack_from(f"<{count * WORDS_PER_RECORD}q", view, 0)
    out: List[Tuple[int, int, Row]] = []
    k = 0
    for _ in range(count):
        out.append((flat[k], flat[k + 1],
                    tuple(flat[k + 2:k + WORDS_PER_RECORD])))
        k += WORDS_PER_RECORD
    return out


# --- shared-memory ring -----------------------------------------------------

def _spawn_world() -> bool:
    """True when worker processes get their *own* resource tracker.

    Under the fork start method (what the transport prefers) every
    process inherits the parent's tracker: its name set dedupes the
    attach-time re-registration, so the built-in accounting is already
    exactly-once and an explicit unregister would double-remove (the
    tracker prints a KeyError).  Under spawn each process tracks
    independently, and an attacher *must* unregister or its tracker
    will unlink — and warn about — a segment it never owned.
    """
    import multiprocessing
    return "fork" not in multiprocessing.get_all_start_methods()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach without adopting unlink duty.

    Python 3.11's ``SharedMemory`` registers the name with the attaching
    process's resource tracker too; creators own the unlink, so spawned
    attachers unregister (see :func:`_spawn_world` for why forked ones
    must not).
    """
    seg = shared_memory.SharedMemory(name=name)
    if _spawn_world():  # pragma: no cover - non-fork platforms
        try:
            resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:
            pass
    return seg


def _disown_segment(seg: shared_memory.SharedMemory) -> None:
    """Hand a created segment's unlink duty to the peer process."""
    try:
        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker not running
        pass


def _fresh_name(tag: str) -> str:
    return f"{SEGMENT_PREFIX}{os.getpid()}-{tag}-{secrets.token_hex(4)}"


class _Segment:
    """One named segment: every process closes it, its creator (the
    coordinator) alone unlinks it."""

    def __init__(self, seg: shared_memory.SharedMemory,
                 created: bool) -> None:
        self._seg = seg
        self.name = seg.name
        self._created = created
        self.unlinked = False
        self._closed = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._seg.close()
        except BufferError:  # pragma: no cover - a view outlived us
            pass

    def unlink(self) -> None:
        """Remove the segment name; exactly-once (idempotent re-calls)."""
        if self.unlinked or not self._created:
            return
        self.unlinked = True
        try:
            self._seg.unlink()
        except FileNotFoundError:  # pragma: no cover - reaped externally
            pass


class ShmRing(_Segment):
    """One direction of framed slots inside one shared segment.

    Each process uses only one role (writer or reader) per ring.
    ``next_seq`` starts at 1; slot for seq ``s`` is
    ``(s - 1) % n_slots``.
    """

    def __init__(self, seg: shared_memory.SharedMemory, slot_bytes: int,
                 n_slots: int, created: bool) -> None:
        super().__init__(seg, created)
        self.slot_bytes = slot_bytes
        self.n_slots = n_slots
        # writer state
        self.next_seq = 1
        self.consumed_floor = 0   # highest seq known consumed by reader
        # reader state
        self.last_read = 0

    # -- lifecycle --

    @classmethod
    def create(cls, tag: str, slot_bytes: Optional[int] = None,
               n_slots: Optional[int] = None) -> "ShmRing":
        slot_bytes = slot_bytes or default_slot_bytes()
        n_slots = n_slots or default_slots()
        size = _GEOMETRY.size + n_slots * (_COMMIT.size + slot_bytes)
        seg = shared_memory.SharedMemory(
            create=True, size=size, name=_fresh_name(tag))
        _GEOMETRY.pack_into(seg.buf, 0, slot_bytes, n_slots)
        # Zero every commit word so a reader can never mistake leftover
        # kernel page contents for a committed frame.
        for k in range(n_slots):
            _COMMIT.pack_into(seg.buf, cls._slot_off(slot_bytes, k), 0)
        return cls(seg, slot_bytes, n_slots, created=True)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        seg = _attach_segment(name)
        slot_bytes, n_slots = _GEOMETRY.unpack_from(seg.buf, 0)
        return cls(seg, slot_bytes, n_slots, created=False)

    # -- geometry --

    @staticmethod
    def _slot_off(slot_bytes: int, k: int) -> int:
        return _GEOMETRY.size + k * (_COMMIT.size + slot_bytes)

    @property
    def frame_capacity(self) -> int:
        """Max payload bytes one frame can carry."""
        return self.slot_bytes - _HEADER.size

    # -- writer role --

    def can_write(self) -> bool:
        return (self.next_seq - 1) - self.consumed_floor < self.n_slots

    def mark_consumed(self, seq: int) -> None:
        if seq > self.consumed_floor:
            self.consumed_floor = seq

    def write_frame(self, kind: int, count: int,
                    parts: Iterable) -> int:
        """Publish one frame; payload is the concatenation of ``parts``
        (bytes-like, copied straight into the slot).  Returns the frame's
        sequence number; raises :class:`RingFull` when no slot is free —
        the caller then takes the pipe fallback."""
        if not self.can_write():
            raise RingFull(
                f"ring {self.name}: {self.n_slots} slots in flight")
        seq = self.next_seq
        base = self._slot_off(self.slot_bytes, (seq - 1) % self.n_slots)
        buf = self._seg.buf
        _COMMIT.pack_into(buf, base, 0)  # invalidate before overwriting
        off = base + _COMMIT.size + _HEADER.size
        total = 0
        for part in parts:
            mv = memoryview(part).cast("B")
            n = mv.nbytes
            if total + n > self.frame_capacity:
                raise ClusterError(
                    f"frame overflows slot ({total + n} > "
                    f"{self.frame_capacity}); callers must size-check")
            buf[off:off + n] = mv
            off += n
            total += n
        _HEADER.pack_into(buf, base + _COMMIT.size, kind, count, total)
        _COMMIT.pack_into(buf, base, seq)  # commit: published last
        self.next_seq = seq + 1
        return seq

    # -- reader role --

    def read_frame(self, seq: int):
        """The frame published as ``seq``: ``(kind, count, payload_view)``.

        The returned view aliases the slot — decode before the writer
        can reuse it (the protocol guarantees the writer waits for the
        reader's next barrier or reply).
        """
        base = self._slot_off(self.slot_bytes, (seq - 1) % self.n_slots)
        buf = self._seg.buf
        (commit,) = _COMMIT.unpack_from(buf, base)
        if commit != seq:
            raise TornFrameError(
                f"ring {self.name}: slot holds frame {commit}, "
                f"expected {seq} (torn write or protocol desync)")
        kind, count, length = _HEADER.unpack_from(buf, base + _COMMIT.size)
        start = base + _COMMIT.size + _HEADER.size
        self.last_read = max(self.last_read, seq)
        return kind, count, memoryview(buf)[start:start + length]

    def read_next(self):
        """:meth:`read_frame` of the frame after the last one read."""
        return self.read_frame(self.last_read + 1)


# --- one-off blob segments (checkpoint payloads) ----------------------------

def write_blob(tag: str, parts: Sequence) -> Tuple[str, int]:
    """Copy ``parts`` into a fresh named segment for the peer to read.

    The *reader* unlinks (attach -> copy -> unlink), so the creating
    process disowns the name from its resource tracker; a crash before
    the read leaves an orphan for :func:`reap_orphans`.
    """
    views = [memoryview(p).cast("B") for p in parts]
    total = sum(v.nbytes for v in views)
    seg = shared_memory.SharedMemory(
        create=True, size=max(1, total), name=_fresh_name(tag))
    off = 0
    for view in views:
        seg.buf[off:off + view.nbytes] = view
        off += view.nbytes
    _disown_segment(seg)
    seg.close()
    return seg.name, total


def read_blob(name: str, nbytes: int) -> bytes:
    """Consume a blob segment: copy out, unlink, close."""
    seg = _attach_segment(name)
    try:
        payload = bytes(seg.buf[:nbytes])
    finally:
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass
        seg.close()
    return payload


# --- record frames ----------------------------------------------------------

def write_records(ring: ShmRing, records: Sequence[Tuple[int, int, Row]],
                  blob_tag: str) -> bool:
    """Publish ``records`` as the ring's next frame.

    A payload larger than a slot goes to a one-off blob segment (the
    reader unlinks it) and the frame carries its name instead.  Returns
    ``True`` when the blob lane was taken.
    """
    payload = pack_records(records) if records else b""
    if len(payload) <= ring.frame_capacity:
        ring.write_frame(KIND_RECORDS, len(records), (payload,))
        return False
    name, nbytes = write_blob(blob_tag, (payload,))
    ring.write_frame(KIND_BLOB, len(records),
                     (struct.pack("<q", nbytes), name.encode()))
    return True


def read_records(ring: ShmRing) -> List[Tuple[int, int, Row]]:
    """Decode the ring's next frame written by :func:`write_records`."""
    kind, count, view = ring.read_next()
    if not count:
        return []
    if kind == KIND_BLOB:
        (nbytes,) = struct.unpack_from("<q", view, 0)
        view = read_blob(bytes(view[8:]).decode(), nbytes)
    elif kind != KIND_RECORDS:
        raise TornFrameError(f"ring {ring.name}: unexpected frame kind {kind}")
    return unpack_records(view, count)


# --- control block: barrier words --------------------------------------------

#: Barrier value standing for "no window" (an agent with nothing left).
NO_WINDOW = 1 << 62

#: FINISH-barrier wait schedule: yield-spin for ``SPIN_S`` (a peer a few
#: hundred microseconds behind is the common case), then sleep in
#: ``SLEEP_S`` steps (a peer that slow is descheduled or stalled).
SPIN_S = 0.002
SLEEP_S = 0.0002

_yield = getattr(os, "sched_yield", lambda: time.sleep(0))


class EpochAborted(ClusterError):
    """The abort word was raised (or the coordinator vanished) while an
    agent waited at a barrier: a peer died mid-epoch."""


class ControlBlock(_Segment):
    """The int64 words the agents synchronize on.

    Word 0 is the abort word, word 1 the agent count; then one 64-byte
    line per agent: its barrier sequence word, the two parity slots of
    the value it contributes to the barrier's min-reduction, and the
    window cursor and barrier round it last completed.  Each word has
    exactly one writer (the coordinator owns the header, agent ``i``
    its own line), and values are published before the sequence word
    that announces them.  Slot parity makes reuse safe: an agent writes
    the slot of generation ``g + 2`` only after passing barrier
    ``g + 1``, which every peer enters only after reading generation
    ``g``'s values.
    """

    _STRIDE = 8
    _SEQ, _VAL, _CURSOR, _ROUNDS = 0, 1, 3, 4

    def __init__(self, seg: shared_memory.SharedMemory,
                 created: bool) -> None:
        super().__init__(seg, created)
        self._words = seg.buf.cast("q")
        self.n_agents = self._words[1]
        self.gen = 0
        self._base = 0
        self._peer_bases: List[int] = []
        self._ppid = os.getppid()

    @classmethod
    def create(cls, tag: str, n_agents: int) -> "ControlBlock":
        size = 8 * cls._STRIDE * (n_agents + 1)
        seg = shared_memory.SharedMemory(
            create=True, size=size, name=_fresh_name(tag))
        seg.buf[:size] = bytes(size)
        struct.pack_into("<q", seg.buf, 8, n_agents)
        return cls(seg, created=True)

    @classmethod
    def attach(cls, name: str) -> "ControlBlock":
        return cls(_attach_segment(name), created=False)

    def close(self) -> None:
        if not self._closed:
            self._words.release()
        super().close()

    def _line(self, agent: int) -> int:
        return self._STRIDE * (agent + 1)

    # -- coordinator side --

    def reset(self) -> None:
        """Zero every agent line and the abort word (between epochs,
        while no agent is inside one)."""
        words = self._words
        words[0] = 0
        for k in range(self._STRIDE, len(words)):
            words[k] = 0

    def abort(self) -> None:
        self._words[0] = 1

    def progress(self) -> Tuple[int, int]:
        """``(cursor, rounds)`` the slowest agent has completed in the
        current epoch."""
        words = self._words
        lines = [self._line(a) for a in range(self.n_agents)]
        return (min(words[b + self._CURSOR] for b in lines),
                min(words[b + self._ROUNDS] for b in lines))

    # -- agent side --

    def bind(self, agent: int) -> None:
        """Act as ``agent``: barriers count from generation 0 again."""
        self.gen = 0
        self._base = self._line(agent)
        self._peer_bases = [self._line(a) for a in range(self.n_agents)
                            if a != agent]

    def publish(self, cursor: int, rounds: int) -> None:
        words = self._words
        words[self._base + self._CURSOR] = cursor
        words[self._base + self._ROUNDS] = rounds

    def allmin(self, value: int) -> Tuple[int, float]:
        """Barrier: contribute ``value``, wait for every peer, return the
        minimum over all contributions and the seconds spent waiting."""
        self.gen = gen = self.gen + 1
        words = self._words
        slot = self._VAL + (gen & 1)
        base = self._base
        words[base + slot] = value
        words[base + self._SEQ] = gen
        waited = 0.0
        out = value
        for peer in self._peer_bases:
            if words[peer] < gen:
                waited += self._await(peer, gen)
            v = words[peer + slot]
            if v < out:
                out = v
        return out, waited

    def _await(self, peer: int, gen: int) -> float:
        words = self._words
        t0 = time.perf_counter()
        now = t0
        spin_until = t0 + SPIN_S
        while words[peer] < gen:
            if words[0]:
                raise EpochAborted("abort word raised")
            if now < spin_until:
                _yield()
            else:
                time.sleep(SLEEP_S)
                if os.getppid() != self._ppid:
                    raise EpochAborted("coordinator exited")
            now = time.perf_counter()
        return now - t0


# --- orphan reaping ---------------------------------------------------------

def list_orphans() -> List[str]:
    """Names of this package's segments still present in ``/dev/shm``."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-POSIX host
        return []
    return sorted(
        entry for entry in os.listdir(shm_dir)
        if entry.startswith(SEGMENT_PREFIX)
    )


def reap_orphans(pid: Optional[int] = None) -> List[str]:
    """Unlink every leftover segment; returns the reaped names.

    The conftest worker-reaper calls this after each test so a failing
    test cannot strand segments for the tests after it.  ``pid``
    limits the sweep to segments that process created — the transport
    reaps a killed agent's in-flight blobs this way.
    """
    prefix = SEGMENT_PREFIX if pid is None else f"{SEGMENT_PREFIX}{pid}-"
    reaped = []
    for name in list_orphans():
        if not name.startswith(prefix):
            continue
        try:
            seg = _attach_segment(name)
        except FileNotFoundError:  # pragma: no cover - raced another reaper
            continue
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass
        seg.close()
        reaped.append(name)
    return reaped
