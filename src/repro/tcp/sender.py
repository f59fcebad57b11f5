"""The transmit engine driving one (sub)flow's data direction.

Implements the loss recovery of the Linux stack the paper measured:
cumulative ACKs with SACK blocks, duplicate-ACK-triggered fast
retransmit, SACK-based hole retransmission during recovery (one
retransmission per hole per recovery epoch, paced by the pipe), and an
RFC 6298 retransmission timer with exponential backoff.  RTT samples
come from the receiver's timestamp echo (RFC 7323 style), so they stay
clean even during recovery.  Window growth is delegated to a pluggable
:class:`~repro.tcp.cc.base.CongestionControl`.

The scoreboard is one seq-sorted record list with skip pointers over
SACKed runs, a next-hole cursor and a send-time-ordered queue of
retransmissions, so per-ACK work does not grow with the window
(DESIGN.md §2b).
"""

import bisect
import math
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Deque, List, Tuple

from repro.core.events import EventLoop, Timer
from repro.core.packet import Packet, PacketFlags
from repro.tcp.cc.base import CongestionControl
from repro.tcp.config import TcpConfig
from repro.tcp.rtt import RttEstimator
from repro.tcp.source import Chunk

__all__ = ["SubflowSender", "SenderStats"]


@dataclass(slots=True)
class _SegmentRecord:
    seq: int
    length: int
    data_seq: int
    sent_at: float
    #: 0 while un-SACKed.  Once SACKed, a sequence number up to which
    #: every record from this one on is known to be SACKed as well.
    sacked_to: int = 0


_SEQ = attrgetter("seq")


@dataclass(slots=True)
class SenderStats:
    """Counters exposed for analysis and tests."""

    segments_sent: int = 0
    bytes_sent: int = 0
    retransmits: int = 0
    fast_retransmits: int = 0
    timeouts: int = 0


class SubflowSender:
    """Reliable, congestion-controlled byte transmission on one subflow."""

    __slots__ = (
        "loop", "config", "cc", "rtt", "_transmit", "flow_id", "subflow_id",
        "snd_una", "snd_nxt", "_board", "_head", "_hole", "_rxt_queue",
        "_pipe", "_dupacks", "_in_recovery", "_recovery_point",
        "_max_sacked_end", "_head_retries", "_dead", "peer_window_bytes",
        "stats", "_rto_timer", "on_data_acked", "on_window_open", "on_dead",
        "on_rto_event", "obs", "obs_path",
    )

    def __init__(
        self,
        loop: EventLoop,
        config: TcpConfig,
        cc: CongestionControl,
        rtt: RttEstimator,
        transmit: Callable[[Packet], None],
        flow_id: int,
        subflow_id: int,
    ) -> None:
        self.loop = loop
        self.config = config
        self.cc = cc
        self.rtt = rtt
        self._transmit = transmit
        self.flow_id = flow_id
        self.subflow_id = subflow_id

        self.snd_una = 0
        self.snd_nxt = 0
        #: Outstanding records are ``_board[_head:]``, sorted by seq.
        self._board: List[_SegmentRecord] = []
        self._head = 0
        #: Next-hole cursor: every outstanding record below this
        #: sequence number is SACKed or retransmitted in this epoch.
        self._hole = 0
        #: (sent_at, record) of this epoch's retransmissions, oldest
        #: first; an entry is stale once its record is resent.
        self._rxt_queue: Deque[Tuple[float, _SegmentRecord]] = deque()
        self._pipe = 0  # outstanding, un-SACKed segments
        self._dupacks = 0
        self._in_recovery = False
        self._recovery_point = 0
        self._max_sacked_end = 0
        self._head_retries = 0
        self._dead = False
        #: Peer's advertised receive window (flow control); starts at
        #: the sender's own configured window until the first ACK.
        self.peer_window_bytes = config.receive_window_bytes
        self.stats = SenderStats()
        #: Optional :class:`~repro.obs.trace.TraceRecorder`; every hot
        #: path only pays an is-None test when tracing is disabled.
        self.obs = None
        self.obs_path = ""

        self._rto_timer = Timer(loop, self._on_rto)

        # Connection-level callbacks (wired by the Subflow).
        self.on_data_acked: Callable[[List[Chunk]], None] = lambda chunks: None
        self.on_window_open: Callable[[], None] = lambda: None
        self.on_dead: Callable[[], None] = lambda: None
        self.on_rto_event: Callable[[], None] = lambda: None

        cc.srtt_getter = lambda: self.rtt.smoothed_rtt
        if hasattr(cc, "now_getter"):
            cc.now_getter = lambda: self.loop.now

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def inflight_segments(self) -> int:
        """Un-SACKed segments in flight (the SACK "pipe")."""
        return self._pipe

    @property
    def done(self) -> bool:
        """True when every byte handed to this sender has been ACKed."""
        return self._head == len(self._board) and self.snd_una == self.snd_nxt

    @property
    def dead(self) -> bool:
        return self._dead

    @property
    def in_recovery(self) -> bool:
        return self._in_recovery

    def window_space(self) -> int:
        """Whole segments that fit in min(cwnd, peer receive window)."""
        if self._dead:
            return 0
        cwnd_space = int(self.cc.cwnd) - self._pipe
        flight_bytes = self.snd_nxt - self.snd_una
        rwnd_space = (
            self.peer_window_bytes - flight_bytes
        ) // self.config.mss_bytes
        return max(0, min(cwnd_space, rwnd_space))

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send_chunk(self, chunk: Chunk) -> None:
        """Assign subflow sequence space to ``chunk`` and transmit it."""
        data_seq, length = chunk
        record = _SegmentRecord(
            seq=self.snd_nxt, length=length, data_seq=data_seq, sent_at=self.loop.now
        )
        self._board.append(record)
        self._pipe += 1
        self.snd_nxt += length
        self._emit(record)
        if not self._rto_timer.running:
            self._rto_timer.start(self.rtt.rto)

    def _emit(self, record: _SegmentRecord, retransmission: bool = False) -> None:
        packet = Packet(
            flow_id=self.flow_id,
            subflow_id=self.subflow_id,
            seq=record.seq,
            ack=0,
            flags=PacketFlags.ACK,
            payload_bytes=record.length,
            data_seq=record.data_seq,
            retransmitted=retransmission,
            sent_at=self.loop.now,
        )
        record.sent_at = self.loop.now
        self.stats.segments_sent += 1
        self.stats.bytes_sent += record.length
        if retransmission:
            self.stats.retransmits += 1
        if self.obs is not None:
            # Adjacent to the stats increments so trace-derived counts
            # reconcile exactly with SenderStats (see repro.obs.summary).
            self.obs.emit(
                "send", self.loop.now, path=self.obs_path,
                flow_id=self.flow_id, subflow_id=self.subflow_id,
                seq=record.seq, length=record.length,
                data_seq=record.data_seq, rxt=retransmission,
            )
        self._transmit(packet)

    def _emit_cwnd(self, reason: str) -> None:
        """Trace a cwnd/ssthresh change (caller checked ``obs``)."""
        ssthresh = self.cc.ssthresh
        self.obs.emit(
            "cwnd", self.loop.now, path=self.obs_path,
            flow_id=self.flow_id, subflow_id=self.subflow_id,
            cwnd=self.cc.cwnd,
            ssthresh=None if ssthresh == math.inf else ssthresh,
            reason=reason,
        )

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_ack_packet(self, packet: Packet) -> None:
        """Process a (possibly SACK-bearing) acknowledgment."""
        if self._dead:
            return
        if packet.rwnd is not None:
            self.peer_window_bytes = packet.rwnd
        if packet.echo_ts is not None and packet.echo_ts >= 0:
            sample = self.loop.now - packet.echo_ts
            self.rtt.add_sample(sample)
            self.cc.on_rtt_sample(sample)
        sack_advanced = self._apply_sack(packet)
        ack = packet.ack
        if ack > self.snd_una:
            self._on_new_ack(ack)
        elif ack == self.snd_una and self._head < len(self._board):
            self._on_dup_ack()
        if self._in_recovery and sack_advanced:
            self._sack_retransmit()

    def _skip_run(self, index: int) -> int:
        """Index of the first record past the SACKed run at ``index``."""
        board = self._board
        return bisect.bisect_left(board, board[index].sacked_to, index + 1, key=_SEQ)

    def _apply_sack(self, packet: Packet) -> bool:
        if not packet.sack:
            return False
        board = self._board
        count = len(board)
        newly_sacked = 0
        max_sacked = self._max_sacked_end
        for start, end in packet.sack:
            if end > max_sacked:
                max_sacked = end
            # SACK every un-SACKed record lying wholly inside the block.
            first = index = bisect.bisect_left(board, start, self._head, key=_SEQ)
            while index < count:
                record = board[index]
                if record.seq + record.length > end:
                    break
                if record.sacked_to:
                    index = self._skip_run(index)
                else:
                    record.sacked_to = record.seq + record.length
                    newly_sacked += 1
                    index += 1
            if index > first:
                # Everything walked is SACKed now: one skip covers it.
                last = board[index - 1]
                board[first].sacked_to = last.seq + last.length
        self._pipe -= newly_sacked
        self._max_sacked_end = max_sacked
        return newly_sacked > 0

    def _on_new_ack(self, ack: int) -> None:
        acked_chunks: List[Chunk] = []
        board = self._board
        count = len(board)
        head = self._head
        while head < count:
            record = board[head]
            if record.seq + record.length > ack:
                break
            if not record.sacked_to:
                self._pipe -= 1
            acked_chunks.append((record.data_seq, record.length))
            head += 1
        if head * 2 > count:
            # Amortised O(1) per record: at least half the list goes.
            del board[:head]
            head = 0
        self._head = head
        self.snd_una = ack
        self._dupacks = 0
        self._head_retries = 0

        if self._in_recovery:
            if ack >= self._recovery_point:
                self._in_recovery = False
                self.cc.cwnd = max(self.cc.ssthresh, 2.0)
                if self.obs is not None:
                    self._emit_cwnd("recovery_exit")
            else:
                # Partial ACK: the next hole is also lost (NewReno) —
                # SACK-driven retransmission handles it when blocks are
                # present; retransmit the head as the fallback.
                self._retransmit_head()
                self._sack_retransmit()
        else:
            self.cc.on_ack(float(len(acked_chunks)))
            if self.obs is not None:
                self._emit_cwnd("ack")
            if self._head < len(board) and self._max_sacked_end > self.snd_una:
                # Holes left behind by an RTO (we are no longer in fast
                # recovery): keep repairing them, paced by the window.
                self._retransmit_head()
                self._sack_retransmit()

        if self._head < len(board):
            self._rto_timer.start(self.rtt.rto)
        else:
            self._rto_timer.stop()

        if acked_chunks:
            self.on_data_acked(acked_chunks)
        self.on_window_open()

    def _on_dup_ack(self) -> None:
        self._dupacks += 1
        if self.obs is not None:
            self.obs.emit(
                "dupack", self.loop.now, path=self.obs_path,
                flow_id=self.flow_id, subflow_id=self.subflow_id,
                count=self._dupacks,
            )
        if self._dupacks == self.config.dupack_threshold and not self._in_recovery:
            self._enter_recovery()
        elif self._in_recovery:
            self.on_window_open()

    def _enter_recovery(self) -> None:
        self._in_recovery = True
        self._recovery_point = self.snd_nxt
        self._new_epoch()
        # RFC 5681 FlightSize counts SACKed-but-unacked data too.
        self.cc.on_enter_recovery(float(len(self._board) - self._head))
        self.stats.fast_retransmits += 1
        if self.obs is not None:
            self.obs.emit(
                "fast_retransmit", self.loop.now, path=self.obs_path,
                flow_id=self.flow_id, subflow_id=self.subflow_id,
                recovery_point=self._recovery_point,
            )
            self._emit_cwnd("fast_retransmit")
        self._retransmit_head()
        self._sack_retransmit()

    def _new_epoch(self) -> None:
        """Start a recovery epoch: every un-SACKed record may be resent.

        A segment is retransmitted at most once per recovery epoch —
        unless the retransmission itself has evidently been lost (no
        ACK/SACK for a full RTO), which Linux detects similarly.
        """
        self._hole = 0
        self._rxt_queue.clear()

    def _retransmit(self, record: _SegmentRecord) -> None:
        self._emit(record, retransmission=True)
        self._rxt_queue.append((record.sent_at, record))

    def _retransmit_head(self) -> None:
        board = self._board
        index = self._head
        while index < len(board) and board[index].sacked_to:
            index = self._skip_run(index)
        if index == len(board):
            return
        record = board[index]
        if record.seq >= self._hole:
            # Only SACKed records lie between the cursor and this one.
            self._hole = record.seq + record.length
        elif self.loop.now - record.sent_at <= self.rtt.rto:
            return
        self._retransmit(record)
        self._rto_timer.start(self.rtt.rto)

    def _sack_retransmit(self) -> None:
        """Retransmit SACK-inferred holes, bounded by the window."""
        budget = self.window_space()
        if budget <= 0:
            return
        lost_boundary = self._max_sacked_end - (
            self.config.dupack_threshold * self.config.mss_bytes
        )
        now = self.loop.now
        rto = self.rtt.rto
        snd_una = self.snd_una
        queue = self._rxt_queue
        while queue:
            sent_at, record = queue[0]
            if (record.sent_at == sent_at and not record.sacked_to
                    and record.seq + record.length > snd_una):
                break
            queue.popleft()  # resent since, SACKed or ACKed
        board = self._board
        count = len(board)
        hole = self._hole
        if queue and now - queue[0][0] > rto:
            # A retransmission went unanswered for an RTO: walk the
            # records below the cursor too, from the head.
            index = self._head
        else:
            index = bisect.bisect_left(board, hole, self._head, key=_SEQ)
        while budget > 0 and index < count:
            record = board[index]
            if record.seq >= lost_boundary:
                break
            if record.sacked_to:
                index = self._skip_run(index)
                continue
            if record.seq >= hole or now - record.sent_at > rto:
                self._retransmit(record)
                budget -= 1
            index += 1
        self._hole = max(hole, board[index].seq if index < count else self.snd_nxt)
        self._rto_timer.start(self.rtt.rto)

    # ------------------------------------------------------------------
    # Timeout handling
    # ------------------------------------------------------------------
    def _on_rto(self) -> None:
        if self._dead or self._head == len(self._board):
            return
        self.stats.timeouts += 1
        self._head_retries += 1
        if self.obs is not None:
            # Before the retries-exhausted bail-out so every timeout
            # counted in SenderStats also appears in the trace.
            self.obs.emit(
                "rto", self.loop.now, path=self.obs_path,
                flow_id=self.flow_id, subflow_id=self.subflow_id,
                retries=self._head_retries, rto_s=self.rtt.rto,
            )
        if self._head_retries > self.config.max_data_retries:
            self._die()
            return
        self._in_recovery = False
        self._dupacks = 0
        self._new_epoch()
        self.cc.on_timeout(float(len(self._board) - self._head))
        self.rtt.back_off()
        if self.obs is not None:
            self._emit_cwnd("rto")
        self._retransmit_head()
        self.on_rto_event()

    def _die(self) -> None:
        self._dead = True
        self._rto_timer.stop()
        self.on_dead()

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def fail(self) -> List[Chunk]:
        """Stop this sender and return the data chunks it never delivered.

        Called when the underlying interface is administratively
        removed; the connection reinjects the returned chunks onto the
        surviving subflows.
        """
        self._dead = True
        self._rto_timer.stop()
        # SACKed chunks are included too: a subflow-level SACK only
        # means the far receiver buffered them out of order; if they
        # never became in-order there, the connection never saw them.
        # The connection filters out anything already reassembled.
        chunks = [(r.data_seq, r.length) for r in self._board[self._head:]]
        self._board.clear()
        self._head = 0
        self._rxt_queue.clear()
        self._pipe = 0
        return chunks

    def __repr__(self) -> str:
        return (
            f"SubflowSender(flow={self.flow_id}.{self.subflow_id}, "
            f"una={self.snd_una}, nxt={self.snd_nxt}, "
            f"pipe={self._pipe}, cwnd={self.cc.cwnd:.1f})"
        )
