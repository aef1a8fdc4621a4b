"""Serve CLI: fault-plan loading, retry knobs, endpoints, exit codes.

``--fault-plan`` must never dump a traceback: every malformed input —
missing file, unreadable path, broken JSON, invalid plan — exits
nonzero with a one-line diagnostic.  ``--fault-plan`` and
``--checkpoint-every`` select the net router, the one supervised
serving plane, and the retry knobs (``--max-retries``,
``--retry-base``, ``--retry-cap``) thread into its
:class:`~repro.serve.NetConfig`.  ``--speedup`` paces in-process
serving only, so the router-plane flags reject it.
"""

import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading

import pytest

import repro
from repro.framework import FaultPlan, FaultSpec
from repro.serve.net import pack
from repro.serve.__main__ import (
    _parse_endpoint,
    build_parser,
    load_fault_plan,
    main,
)


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1, f"diagnostic not one line: {err!r}"
    return err


class TestLoadFaultPlan:
    def test_inline_json(self):
        plan = FaultPlan(seed=3, faults=(
            FaultSpec(key="Venus", kind="crash", at=9),))
        assert load_fault_plan(plan.to_json()) == plan

    def test_file_path(self, tmp_path):
        plan = FaultPlan(faults=(
            FaultSpec(key="link:w0", kind="drop", at=4, span=2),))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert load_fault_plan(str(path)) == plan

    def test_missing_file(self):
        with pytest.raises(ValueError, match="not found"):
            load_fault_plan("/no/such/plan.json")

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_fault_plan(str(tmp_path))  # a directory

    def test_malformed_json(self):
        with pytest.raises(ValueError):
            load_fault_plan('{"seed": 1, "faults": [')

    def test_invalid_plan_semantics(self):
        dup = json.dumps({"seed": 0, "faults": [
            {"key": "a", "kind": "crash"}, {"key": "a", "kind": "crash"},
        ]})
        with pytest.raises(ValueError, match="duplicate"):
            load_fault_plan(dup)


class TestParseEndpoint:
    def test_bare_port_uses_default_host(self):
        assert _parse_endpoint("7341", "127.0.0.1") == ("127.0.0.1", 7341)

    def test_host_and_port(self):
        assert _parse_endpoint("0.0.0.0:80", "127.0.0.1") == ("0.0.0.0", 80)


class TestMainExitCodes:
    def test_missing_fault_plan_file_exits_2(self, capsys):
        assert main(["--fault-plan", "/no/such.json"]) == 2
        assert "bad --fault-plan" in _one_line_error(capsys)

    def test_malformed_inline_plan_exits_2(self, capsys):
        assert main(["--fault-plan", "{broken"]) == 2
        assert "bad --fault-plan" in _one_line_error(capsys)

    def test_bad_retry_knobs_exit_2(self, capsys):
        assert main(["--max-retries", "-1"]) == 2
        assert "bad retry knobs" in _one_line_error(capsys)
        assert main(["--retry-base", "-0.5"]) == 2
        assert "bad retry knobs" in _one_line_error(capsys)

    @pytest.mark.parametrize("flags", [
        ["--net"],
        ["--listen", "0"],
        ["--connect", "127.0.0.1:9"],
        ["--checkpoint-every", "50"],
        ["--fault-plan", '{"faults": []}'],
    ])
    def test_speedup_rejected_on_router_plane(self, capsys, flags):
        """The router replays as fast as possible; --speedup there
        would be silently ignored, so it is an error instead."""
        assert main(["--clusters", "Venus", "--speedup", "3600", *flags]) == 2
        assert "--speedup" in _one_line_error(capsys)

    def test_unknown_cluster_exits_2_with_hint(self, capsys):
        assert main(["--clusters", "Venos"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'Venus'" in err

    def test_replication_flags_need_net_mode(self, capsys):
        assert main(["--clusters", "Venus", "--replicas", "2"]) == 2
        assert "needs --net" in _one_line_error(capsys)
        # local refits are the only topology: argparse refuses the rest
        with pytest.raises(SystemExit) as exc:
            main(["--clusters", "Venus", "--net", "--replicate", "central"])
        assert exc.value.code == 2
        assert "invalid choice: 'central'" in capsys.readouterr().err

    def test_bad_replicas_exit_2(self, capsys):
        assert main(["--clusters", "Venus", "--net", "--replicas", "0"]) == 2
        assert "--replicas must be >= 1" in _one_line_error(capsys)

    def test_replicas_incompatible_with_listen(self, capsys):
        assert main(["--clusters", "Venus", "--listen", "7341",
                     "--replicas", "2"]) == 2
        assert "drive-mode" in _one_line_error(capsys)


class _FakeReport:
    cluster = "Venus"
    events = 10
    wall_seconds = 1.0
    qssf_decisions = 2
    node_samples = 3
    refits: dict = {}


def _capture_net_serve(monkeypatch) -> dict:
    """Stub the router run; returns the dict its kwargs land in."""
    import repro.serve.net as net_mod
    from repro.serve import NetStats

    captured = {}

    def fake_serve(clusters, config, **kw):
        captured["clusters"] = list(clusters)
        captured["config"] = config
        captured.update(kw)
        return [_FakeReport()], NetStats()

    monkeypatch.setattr(net_mod, "serve_clusters_net", fake_serve)
    return captured


class TestKnobPlumbing:
    def test_retry_knobs_flow_into_supervision(self, monkeypatch, capsys):
        """The retry flags configure the router that supervises the
        shards."""
        captured = _capture_net_serve(monkeypatch)
        rc = main(["--clusters", "Venus", "--net", "-q",
                   "--max-retries", "7", "--retry-base", "0.2",
                   "--retry-cap", "3.5"])
        assert rc == 0
        net = captured["net"]
        assert (net.max_retries, net.backoff_base_s, net.backoff_cap_s) == (
            7, 0.2, 3.5)
        capsys.readouterr()

    def test_fault_plan_implies_supervised(self, monkeypatch, capsys):
        """--fault-plan (and --checkpoint-every) select the router, the
        supervised plane, without --net."""
        plan = FaultPlan(faults=(FaultSpec(key="Venus", kind="crash", at=1),))
        captured = _capture_net_serve(monkeypatch)
        assert main(["--clusters", "Venus", "-q",
                     "--fault-plan", plan.to_json()]) == 0
        assert captured["fault_plan"] == plan
        captured.clear()
        assert main(["--clusters", "Venus", "-q",
                     "--checkpoint-every", "25"]) == 0
        assert captured["checkpoint_every"] == 25
        capsys.readouterr()

    def test_net_flags_parse(self):
        args = build_parser().parse_args(
            ["--net", "--workers", "3", "--queue-bound", "9"])
        assert (args.net, args.workers, args.queue_bound) == (True, 3, 9)

    def test_replication_flags_flow_into_net_serve(self, monkeypatch, capsys):
        captured = _capture_net_serve(monkeypatch)
        rc = main(["--clusters", "Venus", "--net", "-q",
                   "--replicas", "3", "--replicate", "local"])
        assert rc == 0
        assert captured["replicas"] == 3
        assert captured["config"].replicate == "local"
        capsys.readouterr()


class TestFrontDoorEndpoints:
    def test_listen_on_busy_port_exits_2_before_forking(self, capsys,
                                                        monkeypatch):
        """A port already in use is one ``error:`` line and exit 2, and
        the socket is bound before any worker is forked."""
        from repro.serve.net import Router

        started = []
        monkeypatch.setattr(Router, "start", lambda self: started.append(self))
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            port = busy.getsockname()[1]
            assert main(["--clusters", "Venus",
                         "--listen", f"127.0.0.1:{port}"]) == 2
        err = _one_line_error(capsys)
        assert err.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")
        assert started == []

    def test_connect_stops_at_a_refused_event(self, capsys):
        """A client whose shard settings differ from the front door's
        streams refs past the door's tables; the door refuses the first
        such event and hangs up, and the client prints one ``error:``
        line naming the cluster and batch and exits 1."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        listener = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--clusters", "Venus",
             "--days", "1", "--max-jobs", "300",
             # a window past the stream admits every event without
             # waiting for the worker's model fits
             "--queue-bound", "100000", "--listen", "127.0.0.1:0"],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            start_new_session=True,
        )
        try:
            # A start that hangs fails the test instead of hanging it.
            assert select.select([listener.stdout], [], [], 60.0)[0]
            port = re.search(r"listening on port (\d+)",
                             listener.stdout.readline()).group(1)
            rc = main(["--clusters", "Venus", "--days", "2",
                       "--max-jobs", "600", "--connect", f"127.0.0.1:{port}"])
        finally:
            # The door keeps the opened, never-closed shard: stop it,
            # and its workers with it, rather than leave them serving
            # the batches already sent to them.
            os.killpg(listener.pid, signal.SIGKILL)
            listener.wait()
            listener.stdout.close()
        assert rc == 1
        err = _one_line_error(capsys)
        assert re.match(r"error: Venus batch \d+ not accepted: ", err), err

    def test_connect_stops_when_the_front_door_hangs_up(self, capsys):
        """A front door that hangs up instead of answering an event
        ends the client with one ``error:`` line naming the cluster
        and batch, and exit 1."""
        with socket.create_server(("127.0.0.1", 0)) as lsock:
            port = lsock.getsockname()[1]

            def _door():
                conn, _ = lsock.accept()
                with conn:
                    conn.recv(1 << 16)  # open
                    conn.sendall(pack({"op": "opened", "cluster": "Venus"},
                                      fmt="json"))
                    conn.recv(1 << 16)  # the first event, left unanswered

            door = threading.Thread(target=_door, daemon=True)
            door.start()
            rc = main(["--clusters", "Venus", "--days", "1", "--max-jobs",
                       "300", "--connect", f"127.0.0.1:{port}"])
            door.join(timeout=30.0)
        assert not door.is_alive()
        assert rc == 1
        err = _one_line_error(capsys)
        assert err.startswith("error: Venus batch 0 not accepted: "), err

    def test_connect_to_nothing_listening_is_one_error_line(self, capsys):
        """A port with nothing listening ends the client with one
        ``error:`` line naming the endpoint, and exit 1."""
        with socket.create_server(("127.0.0.1", 0)) as lsock:
            port = lsock.getsockname()[1]
        rc = main(["--clusters", "Venus", "--days", "1", "--max-jobs",
                   "300", "--connect", f"127.0.0.1:{port}"])
        assert rc == 1
        err = _one_line_error(capsys)
        assert err.startswith(f"error: cannot connect to 127.0.0.1:{port}: "), err

    def test_connect_stops_when_the_front_door_hangs_up_on_open(self, capsys):
        """A front door that hangs up before it answers ``open`` ends
        the client with one ``error:`` line naming the cluster, and
        exit 1."""
        with socket.create_server(("127.0.0.1", 0)) as lsock:
            port = lsock.getsockname()[1]

            def _door():
                conn, _ = lsock.accept()
                with conn:
                    conn.recv(1 << 16)  # open, left unanswered

            door = threading.Thread(target=_door, daemon=True)
            door.start()
            rc = main(["--clusters", "Venus", "--days", "1", "--max-jobs",
                       "300", "--connect", f"127.0.0.1:{port}"])
            door.join(timeout=30.0)
        assert not door.is_alive()
        assert rc == 1
        err = _one_line_error(capsys)
        assert err.startswith("error: Venus not opened: "), err
