"""The receive engine: in-order delivery and cumulative ACK generation.

Matches the relevant behaviour of the Linux receiver the paper
measured: every data segment is acknowledged immediately (no delayed
ACKs, which Linux disables under load anyway), ACKs carry a timestamp
echo for clean RTT samples, and out-of-order ranges are reported as
SACK blocks.
"""

from typing import Callable, Dict, Optional, Tuple

from repro.core.events import EventLoop, Timer
from repro.core.intervals import IntervalSet
from repro.core.packet import Packet

__all__ = ["SubflowReceiver"]

#: (length, data_seq) keyed by subflow sequence number.
_Segment = Tuple[int, int]

#: Real TCP fits at most 3-4 SACK blocks in the options space.
MAX_SACK_BLOCKS = 3

#: (rcv_nxt, echo_ts, sack_blocks, advertised_window) -> sends an ACK.
AckSender = Callable[
    [int, Optional[float], Tuple[Tuple[int, int], ...], int], None
]


class SubflowReceiver:
    """Reassembles a subflow's byte stream and ACKs every data packet."""

    def __init__(
        self,
        send_ack: AckSender,
        on_data: Callable[[int, int], None],
        loop: Optional[EventLoop] = None,
        delayed_acks: bool = False,
        delayed_ack_timeout_s: float = 0.04,
        receive_window_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        self._send_ack = send_ack
        self._on_data = on_data
        self.rcv_nxt = 0
        self._out_of_order: Dict[int, _Segment] = {}
        self._received = IntervalSet()
        self.bytes_received = 0
        self.duplicate_segments = 0
        self.acks_sent = 0
        self.receive_window_bytes = receive_window_bytes
        self._buffered_bytes = 0
        self._delayed = bool(delayed_acks and loop is not None)
        self._pending_segments = 0
        self._last_echo: Optional[float] = None
        self._delack_timer: Optional[Timer] = None
        self._delack_timeout = delayed_ack_timeout_s
        if self._delayed:
            assert loop is not None
            self._delack_timer = Timer(loop, self._flush_delayed_ack)

    @property
    def out_of_order_segments(self) -> int:
        return len(self._out_of_order)

    def _sack_blocks(self) -> Tuple[Tuple[int, int], ...]:
        return self._received.last_above(self.rcv_nxt, MAX_SACK_BLOCKS)

    @property
    def advertised_window(self) -> int:
        """Flow-control window: buffer capacity minus out-of-order backlog.

        In-order bytes are handed to the application immediately, so
        only buffered out-of-order data occupies the receive buffer.
        """
        return max(0, self.receive_window_bytes - self._buffered_bytes)

    def _emit_ack(self, echo: Optional[float]) -> None:
        self.acks_sent += 1
        self._pending_segments = 0
        if self._delack_timer is not None:
            self._delack_timer.stop()
        self._send_ack(self.rcv_nxt, echo, self._sack_blocks(),
                       self.advertised_window)

    def _ack(self, packet: Packet, immediate: bool = True) -> None:
        echo = packet.sent_at if packet.sent_at >= 0 else None
        if not self._delayed or immediate:
            self._emit_ack(echo)
            return
        # RFC 1122 delayed ACK: hold at most one segment's worth.
        self._pending_segments += 1
        self._last_echo = echo
        if self._pending_segments >= 2:
            self._emit_ack(echo)
        else:
            assert self._delack_timer is not None
            self._delack_timer.start(self._delack_timeout)

    def _flush_delayed_ack(self) -> None:
        if self._pending_segments > 0:
            self._emit_ack(self._last_echo)

    def on_data_packet(self, packet: Packet) -> None:
        """Handle an arriving data segment, ACKing cumulatively."""
        data_seq = packet.data_seq if packet.data_seq is not None else packet.seq
        if packet.end_seq <= self.rcv_nxt:
            # Entirely old data (spurious retransmission): re-ACK now.
            self.duplicate_segments += 1
            self._ack(packet, immediate=True)
            return
        self._received.add(packet.seq, packet.end_seq)
        if packet.seq > self.rcv_nxt:
            # A hole precedes this segment: buffer it and dup-ACK
            # immediately (fast retransmit depends on it).
            if packet.seq not in self._out_of_order:
                self._out_of_order[packet.seq] = (
                    packet.payload_bytes, data_seq
                )
                self._buffered_bytes += packet.payload_bytes
            self._ack(packet, immediate=True)
            return
        # In-order (possibly partially duplicate) segment.
        overlap = self.rcv_nxt - packet.seq
        self._accept(packet.seq + overlap, packet.payload_bytes - overlap,
                     data_seq + overlap)
        filled_hole = bool(self._out_of_order)
        self._drain_out_of_order()
        # An ACK that fills a hole should also go out immediately.
        self._ack(packet, immediate=filled_hole)

    def _accept(self, seq: int, length: int, data_seq: int) -> None:
        if length <= 0:
            return
        self.rcv_nxt = seq + length
        self.bytes_received += length
        self._on_data(data_seq, length)

    def _drain_out_of_order(self) -> None:
        while self.rcv_nxt in self._out_of_order:
            length, data_seq = self._out_of_order.pop(self.rcv_nxt)
            self._buffered_bytes -= length
            self._accept(self.rcv_nxt, length, data_seq)
