"""Differential test of the sender's SACK scoreboard.

:class:`SubflowSender` keeps its outstanding segments in a seq-sorted
list with skip pointers over SACKed runs, a next-hole cursor and a
queue of retransmissions.  ``NaiveSender`` below is the scan-based
scoreboard it replaced: an ordered dict of records, rescanned from the
head for every SACK block and every retransmission decision.  Random
sends, cumulative ACKs, SACK blocks, timestamp echoes, RTOs and
``fail()`` are driven through both; everything observable must match.
"""

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import EventLoop
from repro.core.packet import Packet, PacketFlags
from repro.tcp.cc.reno import Reno
from repro.tcp.config import TcpConfig
from repro.tcp.receiver import SubflowReceiver
from repro.tcp.rtt import RttEstimator
from repro.tcp.sender import SubflowSender

MSS = 1448


@dataclass
class _NaiveRecord:
    seq: int
    length: int
    data_seq: int
    sent_at: float
    sacked: bool = False
    rxt_epoch: int = -1


class NaiveSender(SubflowSender):
    """The reference: every scoreboard question is a scan from the head."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.outstanding: "OrderedDict[int, _NaiveRecord]" = OrderedDict()
        self.epoch = 0

    @property
    def done(self):
        return not self.outstanding and self.snd_una == self.snd_nxt

    def send_chunk(self, chunk):
        data_seq, length = chunk
        record = _NaiveRecord(self.snd_nxt, length, data_seq, self.loop.now)
        self.outstanding[record.seq] = record
        self._pipe += 1
        self.snd_nxt += length
        self._emit(record)
        if not self._rto_timer.running:
            self._rto_timer.start(self.rtt.rto)

    def on_ack_packet(self, packet):
        if self._dead:
            return
        if packet.rwnd is not None:
            self.peer_window_bytes = packet.rwnd
        if packet.echo_ts is not None and packet.echo_ts >= 0:
            sample = self.loop.now - packet.echo_ts
            self.rtt.add_sample(sample)
            self.cc.on_rtt_sample(sample)
        sack_advanced = self._apply_sack(packet)
        if packet.ack > self.snd_una:
            self._on_new_ack(packet.ack)
        elif packet.ack == self.snd_una and self.outstanding:
            self._on_dup_ack()
        if self._in_recovery and sack_advanced:
            self._sack_retransmit()

    def _apply_sack(self, packet):
        advanced = False
        for start, end in packet.sack or ():
            self._max_sacked_end = max(self._max_sacked_end, end)
            for seq, record in self.outstanding.items():
                if record.sacked:
                    continue
                if seq >= start and seq + record.length <= end:
                    record.sacked = True
                    self._pipe -= 1
                    advanced = True
                elif seq >= end:
                    break
        return advanced

    def _on_new_ack(self, ack):
        acked = []
        while self.outstanding:
            seq, record = next(iter(self.outstanding.items()))
            if seq + record.length > ack:
                break
            self.outstanding.popitem(last=False)
            if not record.sacked:
                self._pipe -= 1
            acked.append((record.data_seq, record.length))
        self.snd_una = ack
        self._dupacks = 0
        self._head_retries = 0
        if self._in_recovery:
            if ack >= self._recovery_point:
                self._in_recovery = False
                self.cc.cwnd = max(self.cc.ssthresh, 2.0)
            else:
                self._retransmit_head()
                self._sack_retransmit()
        else:
            self.cc.on_ack(float(len(acked)))
            if self.outstanding and self._max_sacked_end > self.snd_una:
                self._retransmit_head()
                self._sack_retransmit()
        if self.outstanding:
            self._rto_timer.start(self.rtt.rto)
        else:
            self._rto_timer.stop()
        if acked:
            self.on_data_acked(acked)
        self.on_window_open()

    def _enter_recovery(self):
        self._in_recovery = True
        self._recovery_point = self.snd_nxt
        self.epoch += 1
        self.cc.on_enter_recovery(float(len(self.outstanding)))
        self.stats.fast_retransmits += 1
        self._retransmit_head()
        self._sack_retransmit()

    def _allowed(self, record):
        if record.sacked:
            return False
        if record.rxt_epoch < self.epoch:
            return True
        return (self.loop.now - record.sent_at) > self.rtt.rto

    def _retransmit_head(self):
        for record in self.outstanding.values():
            if record.sacked:
                continue
            if self._allowed(record):
                record.rxt_epoch = self.epoch
                self._emit(record, retransmission=True)
                self._rto_timer.start(self.rtt.rto)
            return

    def _sack_retransmit(self):
        budget = self.window_space()
        if budget <= 0:
            return
        lost_boundary = self._max_sacked_end - (
            self.config.dupack_threshold * self.config.mss_bytes
        )
        for record in self.outstanding.values():
            if budget <= 0 or record.seq >= lost_boundary:
                break
            if not self._allowed(record):
                continue
            record.rxt_epoch = self.epoch
            self._emit(record, retransmission=True)
            budget -= 1
        self._rto_timer.start(self.rtt.rto)

    def _on_rto(self):
        if self._dead or not self.outstanding:
            return
        self.stats.timeouts += 1
        self._head_retries += 1
        if self._head_retries > self.config.max_data_retries:
            self._die()
            return
        self._in_recovery = False
        self._dupacks = 0
        self.epoch += 1
        self.cc.on_timeout(float(len(self.outstanding)))
        self.rtt.back_off()
        self._retransmit_head()
        self.on_rto_event()

    def fail(self):
        self._dead = True
        self._rto_timer.stop()
        chunks = [(r.data_seq, r.length) for r in self.outstanding.values()]
        self.outstanding.clear()
        self._pipe = 0
        return chunks


class Endpoint:
    """One sender with its own loop, congestion control and RTT state."""

    def __init__(self, cls, config):
        self.loop = EventLoop()
        self.sent: List[tuple] = []
        self.acked: List[tuple] = []
        self.sender = cls(
            self.loop, config, Reno(config), RttEstimator(config),
            lambda p: self.sent.append(
                (p.seq, p.payload_bytes, p.data_seq, p.retransmitted, p.sent_at)
            ),
            flow_id=1, subflow_id=0,
        )
        self.sender.on_data_acked = self.acked.extend

    def observable(self):
        sender = self.sender
        return dict(
            sent=self.sent, acked=self.acked, pipe=sender.inflight_segments,
            max_sacked_end=sender._max_sacked_end, snd_una=sender.snd_una,
            snd_nxt=sender.snd_nxt, done=sender.done, dead=sender.dead,
            in_recovery=sender.in_recovery, cwnd=sender.cc.cwnd,
            window=sender.window_space(), stats=sender.stats, rto=sender.rtt.rto,
        )


def check_invariants(fast: SubflowSender, naive: NaiveSender) -> None:
    records = fast._board[fast._head:]
    assert [(r.seq, r.length) for r in records] == [
        (r.seq, r.length) for r in naive.outstanding.values()
    ]
    sacked = [bool(r.sacked_to) for r in records]
    assert sacked == [r.sacked for r in naive.outstanding.values()]
    # The pipe is the number of un-SACKed outstanding records.
    assert fast.inflight_segments == sacked.count(False) >= 0
    # SACKed is a subset of sent, and every skip pointer spans a run
    # of SACKed records inside the sent sequence space.
    sacked_until = 0
    for record in records:
        if record.seq < sacked_until:
            assert record.sacked_to
        if record.sacked_to:
            assert record.seq < record.sacked_to <= fast.snd_nxt
            sacked_until = max(sacked_until, record.sacked_to)
    # Below the next-hole cursor every record is SACKed or has already
    # been retransmitted in this recovery epoch.
    for record in naive.outstanding.values():
        if record.seq < fast._hole:
            assert record.sacked or record.rxt_epoch == naive.epoch


def boundaries(naive: NaiveSender) -> List[int]:
    """Record boundaries from snd_una to snd_nxt."""
    points = [r.seq for r in naive.outstanding.values()]
    return sorted(set(points + [naive.snd_una, naive.snd_nxt]))


@st.composite
def sack_block(draw, points):
    a = draw(st.sampled_from(points))
    b = draw(st.sampled_from(points))
    start, end = min(a, b), max(a, b)
    if draw(st.integers(0, 4)) == 0:
        # Unaligned edges: a block may cut through a record.
        start = max(0, start + draw(st.integers(-MSS, MSS)))
        end = max(start + 1, end + draw(st.integers(-MSS, MSS)))
    return (start, max(end, start + 1))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_scoreboard_matches_naive_scan(data):
    # Short RTO caps let retransmissions outlive an RTO between ACKs.
    config = TcpConfig(
        initial_rto_s=data.draw(st.sampled_from([0.1, 1.0])),
        min_rto_s=0.05,
        max_rto_s=data.draw(st.sampled_from([0.1, 60.0])),
        max_data_retries=data.draw(st.integers(2, 15)),
        receive_window_bytes=data.draw(st.sampled_from([16, 64, 256])) * MSS,
    )
    fast, naive = Endpoint(SubflowSender, config), Endpoint(NaiveSender, config)
    both = (fast, naive)
    rng = random.Random(data.draw(st.integers(0, 2**32)))  # losses, lengths, gaps
    in_flight = 0  # fast.sent[in_flight:] has not reached the far end yet

    def ack_both(ack, echo, blocks, rwnd=None):
        for side in both:
            side.sender.on_ack_packet(Packet(
                flow_id=1, ack=ack, flags=PacketFlags.ACK,
                sack=blocks or None, echo_ts=echo, rwnd=rwnd,
            ))
        check_invariants(fast.sender, naive.sender)
        assert fast.observable() == naive.observable()

    def advance(seconds):
        until = naive.loop.now + seconds
        for side in both:
            side.loop.run(until=until)
        assert fast.observable() == naive.observable()

    # The far end is a real receiver, ACKing every segment it gets.
    receiver = SubflowReceiver(ack_both, on_data=lambda data_seq, length: None)
    ops = st.sampled_from(["round"] * 10 + ["ack", "wait"])
    for _ in range(data.draw(st.integers(1, 150))):
        op = data.draw(ops)
        if op == "round":
            # One round trip on a lossy path: what was sent arrives
            # (new segments are lost with probability 1/5,
            # retransmissions with 1/2), then the sender fills its
            # window and the clock moves on.
            arriving, in_flight = fast.sent[in_flight:], len(fast.sent)
            for seq, length, _, rxt, sent_at in arriving:
                if rng.random() >= (0.5 if rxt else 0.2):
                    receiver.on_data_packet(Packet(
                        flow_id=1, seq=seq, payload_bytes=length, sent_at=sent_at,
                    ))
            for _ in range(fast.sender.window_space()):
                length = MSS if rng.random() < 0.8 else rng.randint(1, MSS)
                for side in both:
                    side.sender.send_chunk((side.sender.snd_nxt, length))
            advance(rng.uniform(0.005, 0.03))
        elif op == "ack":
            # Anything at all: duplicates, stale or unaligned blocks.
            points = boundaries(naive.sender)
            ack = data.draw(st.sampled_from([naive.sender.snd_una, *points]))
            blocks = tuple(data.draw(st.lists(sack_block(points), max_size=3)))
            echo = data.draw(st.one_of(st.none(), st.floats(0.0, naive.loop.now)))
            ack_both(ack, echo, blocks)
        else:
            advance(data.draw(st.floats(0.001, 1.5)))  # long enough for RTOs
    if data.draw(st.booleans()):
        assert fast.sender.fail() == naive.sender.fail()
        assert fast.observable() == naive.observable()
