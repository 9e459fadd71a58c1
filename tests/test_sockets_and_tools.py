"""Integration tests: the stream driver's EOF / garbage bounds and the
s_time tool."""

import asyncio
import socket

import pytest

from repro.aio import SessionEnded, attach
from repro.experiments.harness import Mode
from repro.tools.s_time import MODE_NAMES, run_s_time


class _Sink:
    """A sans-I/O stand-in that consumes anything and never progresses."""

    def __init__(self, handshake_complete=True):
        self.handshake_complete = handshake_complete
        self.closed = False
        self.resumed = False

    def start_handshake(self):
        pass

    def receive_data(self, data):
        return []

    def data_to_send(self):
        return b""

    def data_to_send_views(self):
        return []

    def send_application_data(self, data, context_id=0):
        pass

    def close(self):
        self.closed = True


def _run_against_peer(scenario, **sink_kwargs):
    """Run ``scenario(conn, peer_socket)`` with an AsyncConnection over
    one end of a socketpair and the raw peer socket as the other."""

    async def main():
        left, right = socket.socketpair()
        left.setblocking(False)
        conn = await attach(right, _Sink(**sink_kwargs))
        writer = conn.transport
        try:
            await scenario(conn, left)
        finally:
            writer.close()
            left.close()

    asyncio.run(main())


class TestSocketRobustness:
    def test_pump_until_bounds_garbage_stream(self):
        """A peer streaming junk forever trips the byte bound instead of
        pinning the pump loop."""

        async def scenario(conn, peer):
            loop = asyncio.get_running_loop()

            async def stream():
                junk = b"\xaa" * 65536
                while True:
                    await loop.sock_sendall(peer, junk)

            streamer = asyncio.create_task(stream())
            try:
                with pytest.raises(ConnectionError, match="without progress"):
                    await conn.pump_until(
                        lambda: False, timeout=10.0, max_bytes=256 * 1024
                    )
            finally:
                streamer.cancel()
                await asyncio.gather(streamer, return_exceptions=True)

        _run_against_peer(scenario)

    def test_half_close_after_handshake_is_session_ended(self):
        async def scenario(conn, peer):
            peer.shutdown(socket.SHUT_WR)
            with pytest.raises(SessionEnded):
                await conn.recv_app_data(timeout=5.0)

        _run_against_peer(scenario, handshake_complete=True)

    def test_eof_mid_handshake_is_a_plain_connection_error(self):
        async def scenario(conn, peer):
            peer.shutdown(socket.SHUT_WR)
            with pytest.raises(ConnectionError) as excinfo:
                await conn.pump_until(lambda: False, timeout=5.0)
            assert not isinstance(excinfo.value, SessionEnded)

        _run_against_peer(scenario, handshake_complete=False)


class TestSTime:
    def test_run_s_time_counts_handshakes(self):
        stats = run_s_time(
            Mode.NO_ENCRYPT, seconds=0.2, n_middleboxes=0, key_bits=512
        )
        assert stats["connections"] > 0
        assert stats["connections_per_second"] > 0

    def test_mode_names_complete(self):
        assert set(MODE_NAMES.values()) == set(Mode)

    def test_cli_main(self, capsys):
        from repro.tools.s_time import main

        assert main(["--mode", "plain", "--seconds", "0.1", "--middleboxes", "0",
                     "--key-bits", "512"]) == 0
        out = capsys.readouterr().out
        assert "connections/sec" in out

    def test_cli_async_drives_load_generator(self, capsys):
        from repro.tools.s_time import main

        assert main(["--mode", "plain", "--async", "--connections", "6",
                     "--concurrency", "3", "--middleboxes", "0",
                     "--key-bits", "512"]) == 0
        out = capsys.readouterr().out
        assert "connections/sec" in out
        assert "p50=" in out
        assert "0 failed" in out
