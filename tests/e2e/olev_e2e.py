#!/usr/bin/env python3
"""Process-level checks of olevd and the traced binaries, run as ctest entries.

Each scenario runs in a fresh temporary directory, starts its processes there
and checks what they report:

  service    olevd with the admin plane under a 64 x 50 olev_loadgen run,
             olev_top --once five times and one `snapshot` query during the
             load, then a SIGTERM drain; checks the loadgen report, the
             OLEV_METRICS snapshot, the admin snapshot and the OLEV_FLIGHT dump
  meanfield  olevd --engine meanfield under the same 64 x 50 load
  persist    a drain to state.bin and journal1.bin, a --resume at the same
             update cursor, a reconnecting loadgen greeted with
             SESSION_RESUMED, then two olev_replay runs of the journal, the
             second gated on the first one's hash
  traced     BINARY run with OLEV_TRACE plus REPORT_VAR (OLEV_METRICS or
             OLEV_SWEEP_REPORT): tools/check_trace.py on the trace, and the
             report must parse as JSON

Every process must exit 0.  On a failure the harness prints every log of the
scenario, olevd's among them; whether it passes or fails, it kills and reaps
each process it started.

Usage:
  olev_e2e.py service OLEVD OLEV_LOADGEN OLEV_TOP
  olev_e2e.py meanfield OLEVD OLEV_LOADGEN
  olev_e2e.py persist OLEVD OLEV_LOADGEN OLEV_REPLAY
  olev_e2e.py traced BINARY REPORT_VAR
"""

from __future__ import annotations

import ctypes
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time

READY_DEADLINE_S = 10.0  # for olevd's ready lines
ADMIN_DEADLINE_S = 5.0   # for one admin query and its reply
EXIT_DEADLINE_S = 60.0   # for a client run or a drain

LISTENING = r"^olevd: listening on 127\.0\.0\.1:(\d+)$"
ADMIN = r"^olevd: admin on 127\.0\.0\.1:(\d+)$"
RESUMED = r"^olevd: resumed updates=(\d+)"

CHECK_TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, os.pardir, "tools", "check_trace.py")

_LIBC = ctypes.CDLL(None) if sys.platform.startswith("linux") else None


class Failure(Exception):
    """A check that did not hold; the message says which."""


def expect(condition: bool, detail: str) -> None:
    if not condition:
        raise Failure(detail)


def _die_with_harness() -> None:
    # PR_SET_PDEATHSIG: a child is killed with the harness, even when the
    # ctest TIMEOUT kills the harness first.
    if _LIBC is not None:
        _LIBC.prctl(1, signal.SIGKILL)


class Run:
    """The processes of one scenario, run in its temporary directory."""

    def __init__(self, tmp: str) -> None:
        self.tmp = tmp
        self.procs: list[subprocess.Popen] = []
        self.logs: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def read(self, name: str) -> str:
        with open(self.path(name), encoding="utf-8", errors="replace") as f:
            return f.read()

    def json(self, name: str) -> dict:
        with open(self.path(name), encoding="utf-8") as f:
            return json.load(f)

    def start(self, argv: list[str], log: str,
              env: dict[str, str] | None = None) -> subprocess.Popen:
        """Starts argv (argv[0] a path) with stdout and stderr in `log`."""
        with open(self.path(log), "wb") as out:
            proc = subprocess.Popen(
                [os.path.abspath(argv[0]), *argv[1:]], cwd=self.tmp,
                stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT,
                env={**os.environ, **(env or {})},
                preexec_fn=_die_with_harness)
        self.procs.append(proc)
        self.logs.append(log)
        return proc

    def finish(self, proc: subprocess.Popen, what: str) -> None:
        try:
            code = proc.wait(timeout=EXIT_DEADLINE_S)
        except subprocess.TimeoutExpired:
            raise Failure(f"{what} still running after {EXIT_DEADLINE_S:.0f} s")
        expect(code == 0, f"{what} exited {code}")

    def call(self, argv: list[str], log: str,
             env: dict[str, str] | None = None) -> None:
        self.finish(self.start(argv, log, env), os.path.basename(argv[0]))

    def olevd(self, argv: list[str], log: str, ready: tuple[str, ...],
              env: dict[str, str] | None = None
              ) -> tuple[subprocess.Popen, list[str]]:
        """Starts olevd on ephemeral ports and waits for each ready line in
        `ready`; returns the process and each line's captured group."""
        proc = self.start([*argv, "--port", "0"], log, env)
        deadline = time.monotonic() + READY_DEADLINE_S
        while True:
            text = self.read(log)
            found = [re.search(line, text, re.MULTILINE) for line in ready]
            if all(found):
                return proc, [match.group(1) for match in found]
            missing = ready[found.index(None)]
            expect(proc.poll() is None,
                   f"olevd exited {proc.returncode} before /{missing}/")
            expect(time.monotonic() < deadline,
                   f"olevd printed no /{missing}/ in {READY_DEADLINE_S:.0f} s")
            time.sleep(0.05)

    def drain(self, proc: subprocess.Popen) -> None:
        """SIGTERM must answer everything and exit 0."""
        proc.send_signal(signal.SIGTERM)
        self.finish(proc, "olevd after SIGTERM")

    def print_logs(self) -> None:
        for log in self.logs:
            print(f"---- {log}", file=sys.stderr)
            print(self.read(log), file=sys.stderr)

    def reap(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def admin(port: str, command: str) -> dict:
    """Sends one admin command and parses its one-line reply."""
    deadline = time.monotonic() + ADMIN_DEADLINE_S
    reply = b""
    with socket.create_connection(("127.0.0.1", int(port)),
                                  timeout=ADMIN_DEADLINE_S) as s:
        s.sendall(command.encode() + b"\n")
        while not reply.endswith(b"\n"):
            s.settimeout(max(deadline - time.monotonic(), 1e-3))
            chunk = s.recv(65536)
            if not chunk:
                break
            reply += chunk
    return json.loads(reply)


def clean_report(name: str, report: dict) -> None:
    expect(report["garbled"] == 0, f"{name}: {report}")
    expect(report["errors"] == 0, f"{name}: {report}")


def service(run: Run, olevd: str, loadgen: str, top: str) -> str:
    daemon, (port, admin_port) = run.olevd(
        [olevd, "--admin-port", "0", "--players", "64", "--sections", "16"],
        "olevd.log", (LISTENING, ADMIN),
        env={"OLEV_METRICS": "svc_metrics.json",
             "OLEV_FLIGHT": "svc_flight.json"})
    # Poll the admin plane WHILE the load runs: the snapshot endpoint must
    # answer from the serving loop under 64-connection pressure.
    load = run.start([loadgen, "--port", port, "--connections", "64",
                      "--requests", "50", "--json", "loadgen.json"],
                     "loadgen.log")
    for i in range(1, 6):
        run.call([top, "--port", admin_port, "--once"], f"admin_snap_{i}.txt")
        time.sleep(0.05)
    snap = admin(admin_port, "snapshot")
    run.finish(load, "olev_loadgen")
    run.drain(daemon)

    report = run.json("loadgen.json")
    clean_report("loadgen", report)
    expect(report["ok"] == 64 * 50, f"loadgen: {report}")
    # Server-reported phase decomposition rides back on every reply.
    for key in ("server_admit_p50_us", "server_queue_p50_us",
                "server_batch_p50_us", "server_solve_p50_us"):
        expect(key in report, f"loadgen: missing phase key {key}")
    metrics = run.json("svc_metrics.json")
    for counter in ("svc.connections.accepted", "svc.requests.served"):
        expect(counter in metrics["counters"], f"missing counter {counter}")
    expect(metrics["counters"]["svc.requests.served"] == 64 * 50,
           f"metrics: {metrics['counters']}")
    for histogram in ("svc.batch.size", "svc.request.latency_us",
                      "svc.phase.queue_us", "svc.phase.solve_us"):
        expect(histogram in metrics["histograms"],
               f"missing histogram {histogram}")
    # The mid-load snapshot has live planes and populated phase histograms.
    expect(snap["health"]["status"] == "serving", f"snapshot: {snap['health']}")
    expect(snap["engine"]["updates"] > 0, f"snapshot: {snap['engine']}")
    for histogram in ("svc.phase.queue_us", "svc.phase.solve_us"):
        expect(snap["metrics"]["histograms"][histogram]["count"] > 0,
               f"snapshot: {histogram} is empty")
    # The SIGTERM drain dumps the flight recorder on exit.
    flight = run.json("svc_flight.json")
    expect(flight["recorded"] > 0, f"flight: {flight}")
    events = {event["event"] for event in flight["events"]}
    for event in ("admit", "batch_fire", "drain"):
        expect(event in events, f"flight: no {event} event in {events}")
    return (f"service clean: {report['requests_per_s']} req/s, "
            f"{flight['recorded']} flight events")


def meanfield(run: Run, olevd: str, loadgen: str) -> str:
    daemon, (port,) = run.olevd(
        [olevd, "--engine", "meanfield", "--players", "64", "--sections", "16"],
        "olevd.log", (LISTENING,))
    run.call([loadgen, "--port", port, "--connections", "64", "--requests",
              "50", "--json", "loadgen.json"], "loadgen.log")
    run.drain(daemon)
    report = run.json("loadgen.json")
    clean_report("loadgen", report)
    expect(report["ok"] == 64 * 50, f"loadgen: {report}")
    return f"meanfield clean: {report['requests_per_s']} req/s"


def persist(run: Run, olevd: str, loadgen: str, replay: str) -> str:
    shape = [olevd, "--admin-port", "0", "--players", "32", "--sections", "16",
             "--snapshot-path", "state.bin"]
    daemon, (port, admin_port) = run.olevd(
        [*shape, "--journal", "journal1.bin"], "olevd1.log", (LISTENING, ADMIN))
    run.call([loadgen, "--port", port, "--connections", "32", "--requests",
              "25", "--json", "loadgen1.json"], "loadgen1.log")
    before = admin(admin_port, "engine")
    # The drain answers everything, then persists state.bin via the atomic
    # tmp+fsync+rename path.
    run.drain(daemon)
    expect(os.path.isfile(run.path("state.bin")), "drain left no snapshot")
    expect(os.path.isfile(run.path("journal1.bin")), "no journal written")

    # The resume ready line is part of the stdout contract.
    daemon, (port, admin_port, _) = run.olevd(
        [*shape, "--resume", "--journal", "journal2.bin"], "olevd2.log",
        (LISTENING, ADMIN, RESUMED))
    after = admin(admin_port, "engine")
    # Every connection beacons a snapshot-bound player, drops and
    # reconnects: each must be greeted with SESSION_RESUMED.
    run.call([loadgen, "--port", port, "--connections", "32", "--requests",
              "10", "--reconnect", "--json", "loadgen2.json"], "loadgen2.log")
    run.drain(daemon)

    for name in ("loadgen1.json", "loadgen2.json"):
        clean_report(name, run.json(name))
    # The restart continues at the exact update cursor the drain cut.
    expect(before["updates"] == 32 * 25, f"before: {before}")
    expect(after["updates"] == before["updates"], f"{before} -> {after}")
    expect(after["cursor"] == before["cursor"], f"{before} -> {after}")
    expect(after["resumed"] is True, f"after: {after}")
    expect(before["resumed"] is False, f"before: {before}")
    expect(before["journal_records"] == 32 * 25, f"before: {before}")
    # 32 re-attaching beacons + 32 reconnects, each greeted.
    reconnected = run.json("loadgen2.json")
    expect(reconnected["reconnects"] == 32, f"loadgen2: {reconnected}")
    expect(reconnected["session_resumed"] >= 32, f"loadgen2: {reconnected}")

    # A second, independent replay must land on the same hash: olev_replay
    # exits 1 on a mismatch.
    run.call([replay, "--journal", "journal1.bin"], "replay1.json")
    replayed = run.json("replay1.json")
    run.call([replay, "--journal", "journal1.bin", "--expect-hash",
              replayed["output_hash"]], "replay2.json")
    expect(replayed["records"] == 32 * 25, f"replay: {replayed}")
    expect(replayed["replayed"] == replayed["records"], f"replay: {replayed}")
    expect(not replayed["truncated"], f"replay: {replayed}")
    # The replayed engine walks the update sequence the live daemon served.
    expect(replayed["updates"] == before["updates"],
           f"replay: {replayed} vs engine {before}")
    return (f"persist clean: cursor {after['cursor']}, updates "
            f"{after['updates']}, session_resumed "
            f"{reconnected['session_resumed']}, hash {replayed['output_hash']}")


def traced(run: Run, binary: str, report_var: str) -> str:
    run.call([binary], "output.log",
             env={"OLEV_TRACE": "trace.json", report_var: "report.json"})
    run.call([sys.executable, CHECK_TRACE, "trace.json"], "check_trace.log")
    run.json("report.json")
    return f"traced clean: {os.path.basename(binary)}, {report_var} parses"


SCENARIOS = {"service": service, "meanfield": meanfield, "persist": persist,
             "traced": traced}


def main(argv: list[str]) -> int:
    scenario = SCENARIOS.get(argv[1]) if len(argv) > 1 else None
    if scenario is None or len(argv) - 2 != scenario.__code__.co_argcount - 1:
        print(__doc__.strip().split("Usage:")[1], file=sys.stderr)
        return 2
    # A SIGTERM unwinds through the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    with tempfile.TemporaryDirectory(prefix="olev_e2e.") as tmp:
        run = Run(tmp)
        try:
            print(scenario(run, *argv[2:]))
            return 0
        except (Failure, OSError, ValueError, KeyError, TypeError) as error:
            print(f"FAIL {argv[1]}: {error}", file=sys.stderr)
            run.print_logs()
            return 1
        finally:
            run.reap()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
